//! The Expr → flat-IR compiler.
//!
//! Compilation is two walks per function plus a link step:
//!
//! 1. **Analysis** — one pre-pass over the function's whole subtree
//!    (crossing nested `lambda` boundaries) computes, for every binding
//!    form the function owns, which slots are *captured* by a nested
//!    lambda and which are *assigned* (`set!` anywhere in scope). A slot
//!    is assignment-converted to a shared cell iff it is captured and
//!    mutable (`set!` target, or any `letrec` binding — `letrec` inits
//!    assign after closures may already have captured the slot).
//! 2. **Codegen** — a second walk in the same order emits instructions,
//!    mapping `(depth, slot)` addresses onto flat frame indices (sibling
//!    scopes reuse slots via a watermark allocator) or capture indices
//!    (ordered exactly as [`LambdaDef::free`]). Call sites with a callee
//!    that is a statically bound, never-mutated global `define`d by a
//!    single `lambda` get the enforcement plan's decision baked in.
//! 3. **Link** — per-function blocks concatenate into one arena; jump
//!    targets are rebased and then jump-threaded (a branch to an
//!    unconditional jump lands directly at the final target, which is
//!    what flattens desugared `cond` chains). Finally the hottest
//!    adjacent instruction pairs — chosen from dispatch-pair profiles of
//!    the fig10 workloads — are fused into superinstructions: the fused
//!    variant replaces the *first* instruction of the pair and the second
//!    stays in place (the machine skips it), so jump targets into the
//!    second slot keep their original semantics with no remapping.
//!
//! Call sites are allocated one per application *expression* (deduplicated
//! only for statically bound globals, whose baked action is identical at
//! every site), so every [`SiteAction::Generic`] site owns a private
//! polymorphic inline cache in the machine (see [`crate::pic`]).

use crate::{
    CallSite, CapSrc, CompiledProgram, ConstIx, Instr, LabelIx, SiteAction, SiteIx, Template,
    TopCode,
};
use sct_core::plan::{Decision, EnforcementPlan, PlanDomain};
use sct_lang::ast::{Expr, GlobalIndex, LambdaDef, Program, TopForm, VarRef};
use sct_lang::Prim;
use std::collections::HashMap;
use std::rc::Rc;

/// Compiles a resolved program against an optional enforcement plan.
///
/// With `plan = None` every known-callee site is emitted as
/// [`SiteAction::Monitored`] (the probe-free monitored path) and
/// first-class sites as [`SiteAction::Generic`]; the instruction stream is
/// otherwise identical, so a plan changes *decisions*, never *shape*.
///
/// # Panics
///
/// Panics on internal invariant violations, and on one resource limit:
/// a single function whose *cumulative* nested `let`/`letrec` watermark
/// exceeds 65 535 flat slots (the IR's `u16` frame addressing, matching
/// the resolver's own `u16` per-frame slots). No hand-written program
/// approaches this; a generator that does should split the function.
pub fn compile(program: &Program, plan: Option<&EnforcementPlan>) -> CompiledProgram {
    compile_inner(program, plan, true)
}

/// As [`compile`] but skipping the superinstruction fusion pass.
///
/// The unfused stream is what dispatch-pair profiling runs over (see
/// `MachineConfig::profile_pairs` in `sct-interp`): measuring pair
/// frequencies on already-fused code would hide exactly the pairs the
/// fusion set was chosen from.
pub fn compile_unfused(program: &Program, plan: Option<&EnforcementPlan>) -> CompiledProgram {
    compile_inner(program, plan, false)
}

fn compile_inner(program: &Program, plan: Option<&EnforcementPlan>, fuse: bool) -> CompiledProgram {
    let mut b = Builder {
        consts: Vec::new(),
        const_ix: HashMap::new(),
        labels: Vec::new(),
        label_ix: HashMap::new(),
        sites: vec![CallSite {
            action: SiteAction::Generic,
        }],
        site_ix: HashMap::new(),
        templates: (0..program.lambda_count).map(|_| None).collect(),
        funcs: Vec::new(),
        global_actions: global_actions(program, plan),
    };
    let mut top = Vec::new();
    for form in &program.top_level {
        let (define, expr) = match form {
            TopForm::Define { index, expr } => (Some(*index), expr),
            TopForm::Expr(expr) => (None, expr),
        };
        let (block, frame_size) = compile_fn(&mut b, expr, None, Vec::new());
        b.funcs.push(FnBlock {
            code: block,
            owner: Owner::Top(top.len()),
        });
        top.push(TopCode {
            entry: 0, // patched at link
            frame_size,
            define,
        });
    }
    link(
        b,
        top,
        plan.is_some(),
        plan.map_or(0, EnforcementPlan::decisions_fingerprint),
        fuse,
    )
}

/// Shared state across every function compiled for one program.
struct Builder {
    consts: Vec<Rc<sct_sexpr::Datum>>,
    const_ix: HashMap<*const sct_sexpr::Datum, ConstIx>,
    labels: Vec<Rc<str>>,
    label_ix: HashMap<Rc<str>, LabelIx>,
    sites: Vec<CallSite>,
    site_ix: HashMap<GlobalIndex, SiteIx>,
    templates: Vec<Option<Template>>,
    funcs: Vec<FnBlock>,
    global_actions: HashMap<GlobalIndex, SiteAction>,
}

struct FnBlock {
    code: Vec<Instr>,
    owner: Owner,
}

enum Owner {
    Lambda(u32),
    Top(usize),
}

impl Builder {
    fn const_ix(&mut self, d: &Rc<sct_sexpr::Datum>) -> ConstIx {
        let key = Rc::as_ptr(d);
        if let Some(&ix) = self.const_ix.get(&key) {
            return ix;
        }
        let ix = self.consts.len() as ConstIx;
        self.consts.push(d.clone());
        self.const_ix.insert(key, ix);
        ix
    }

    fn label_ix(&mut self, label: &Rc<str>) -> LabelIx {
        if let Some(&ix) = self.label_ix.get(label) {
            return ix;
        }
        let ix = self.labels.len() as LabelIx;
        self.labels.push(label.clone());
        self.label_ix.insert(label.clone(), ix);
        ix
    }

    /// The call-site index for an application whose operator is `func`.
    /// Statically bound globals share one site per global (the baked
    /// action is identical everywhere); every other operator — first
    /// class, or a global that is rebound or not lambda-bound — gets a
    /// *fresh* `Generic` site so it owns a private inline cache.
    fn site_for(&mut self, func: &Expr) -> SiteIx {
        let Expr::Global(g) = func else {
            return self.fresh_generic();
        };
        let Some(action) = self.global_actions.get(g).cloned() else {
            return self.fresh_generic();
        };
        if let Some(&ix) = self.site_ix.get(g) {
            return ix;
        }
        let ix = self.sites.len() as SiteIx;
        self.sites.push(CallSite { action });
        self.site_ix.insert(*g, ix);
        ix
    }

    fn fresh_generic(&mut self) -> SiteIx {
        let ix = self.sites.len() as SiteIx;
        self.sites.push(CallSite {
            action: SiteAction::Generic,
        });
        ix
    }
}

/// Primitives the machine can complete without cooperation (everything but
/// `apply`, `contract`, and `terminating/c`, which re-enter application or
/// wrap values).
fn simple_prim(p: Prim) -> bool {
    !matches!(p, Prim::Apply | Prim::Contract | Prim::TerminatingC)
}

// ---------------------------------------------------------------------
// Call-site specialization input: which globals are statically bound.
// ---------------------------------------------------------------------

/// For every global that is defined exactly once, by a `lambda`, and never
/// `set!`, the [`SiteAction`] its call sites may bake in.
fn global_actions(
    program: &Program,
    plan: Option<&EnforcementPlan>,
) -> HashMap<GlobalIndex, SiteAction> {
    // Each λ's decision, indexed once; the first decision for a λ wins.
    let mut by_lambda: HashMap<u32, &Decision> = HashMap::new();
    for d in plan.map_or(&[][..], |p| &p.decisions) {
        by_lambda.entry(d.lambda).or_insert(&d.decision);
    }
    let mut out = HashMap::new();
    for (g, binding) in program.global_bindings().iter().enumerate() {
        let Some(lambda) = binding.static_lambda() else {
            continue;
        };
        let action = match by_lambda.get(&lambda) {
            Some(decision) => match decision {
                Decision::Static { guard } => {
                    if guard.iter().all(|&g| g == PlanDomain::Any) {
                        SiteAction::Skip { lambda }
                    } else {
                        SiteAction::Guarded {
                            lambda,
                            doms: Rc::from(guard.as_slice()),
                        }
                    }
                }
                // Refuted programs are rejected before running under the
                // hybrid regime; if such a program is executed anyway the
                // monitored path is the sound one.
                Decision::Monitor { .. } | Decision::Refuted { .. } => {
                    SiteAction::Monitored { lambda }
                }
            },
            None => SiteAction::Monitored { lambda },
        };
        out.insert(g as GlobalIndex, action);
    }
    out
}

// ---------------------------------------------------------------------
// Analysis: captured / assigned flags per owned binding form.
// ---------------------------------------------------------------------

#[derive(Default, Clone, Copy)]
struct Flag {
    captured: bool,
    assigned: bool,
}

struct AEntry {
    /// Index into the output when the frame belongs to the function under
    /// compilation (not separated from its root by a lambda boundary).
    owned: Option<usize>,
    /// Lambda-nesting level at which the frame was created.
    lam: u32,
}

struct Analysis {
    stack: Vec<AEntry>,
    out: Vec<Vec<Flag>>,
    lam: u32,
}

impl Analysis {
    fn mark(&mut self, v: VarRef, assigned: bool) {
        let d = v.depth as usize;
        if d >= self.stack.len() {
            // A free reference of the function under compilation; the
            // *enclosing* function's analysis flags the binding.
            return;
        }
        let e = &self.stack[self.stack.len() - 1 - d];
        if let Some(ix) = e.owned {
            let crossing = self.lam > e.lam;
            let f = &mut self.out[ix][v.slot as usize];
            if crossing {
                f.captured = true;
            }
            if assigned {
                f.assigned = true;
            }
        }
    }

    fn walk(&mut self, e: &Expr) {
        match e {
            Expr::Var(v) => self.mark(*v, false),
            Expr::SetLocal { var, value } => {
                self.mark(*var, true);
                self.walk(value);
            }
            Expr::Quote(_) | Expr::Global(_) | Expr::PrimRef(_) => {}
            Expr::Lambda(def) => {
                self.stack.push(AEntry {
                    owned: None,
                    lam: self.lam + 1,
                });
                self.lam += 1;
                self.walk(&def.body);
                self.lam -= 1;
                self.stack.pop();
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.walk(cond);
                self.walk(then_branch);
                self.walk(else_branch);
            }
            Expr::App { func, args } => {
                self.walk(func);
                args.iter().for_each(|a| self.walk(a));
            }
            Expr::Seq(exprs) => exprs.iter().for_each(|a| self.walk(a)),
            Expr::SetGlobal { value, .. } => self.walk(value),
            Expr::Let { inits, body } => {
                // Inits evaluate in the outer scope; the form's index is
                // allocated *after* them so nested owned forms inside the
                // inits number first — codegen allocates in the same order.
                inits.iter().for_each(|a| self.walk(a));
                let owned = (self.lam == 0).then(|| {
                    self.out.push(vec![Flag::default(); inits.len()]);
                    self.out.len() - 1
                });
                self.stack.push(AEntry {
                    owned,
                    lam: self.lam,
                });
                self.walk(body);
                self.stack.pop();
            }
            Expr::LetRec { inits, body } => {
                let owned = (self.lam == 0).then(|| {
                    self.out.push(vec![Flag::default(); inits.len()]);
                    self.out.len() - 1
                });
                self.stack.push(AEntry {
                    owned,
                    lam: self.lam,
                });
                inits.iter().for_each(|a| self.walk(a));
                self.walk(body);
                self.stack.pop();
            }
            Expr::TermC { body, .. } => self.walk(body),
        }
    }
}

// ---------------------------------------------------------------------
// Codegen.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct SlotBind {
    flat: u16,
    /// Assignment-converted: the slot holds a shared cell.
    cell: bool,
    /// A `letrec` slot that may still hold `Undefined`: loads check.
    checked: bool,
}

struct Scope {
    binds: Vec<SlotBind>,
}

struct FnState {
    code: Vec<Instr>,
    scopes: Vec<Scope>,
    free: Vec<VarRef>,
    cap_cells: Vec<bool>,
    next_flat: u16,
    max_flat: u16,
    flags: Vec<Vec<Flag>>,
    form_ix: usize,
}

enum Loc {
    Local(SlotBind),
    Cap(u16, bool),
}

impl FnState {
    fn resolve(&self, v: VarRef) -> Loc {
        let d = v.depth as usize;
        if d < self.scopes.len() {
            Loc::Local(self.scopes[self.scopes.len() - 1 - d].binds[v.slot as usize])
        } else {
            let outer = VarRef {
                depth: (d - self.scopes.len()) as u16,
                slot: v.slot,
            };
            let i = self
                .free
                .iter()
                .position(|f| *f == outer)
                .expect("free reference missing from the lambda's free list");
            Loc::Cap(i as u16, self.cap_cells[i])
        }
    }

    fn alloc_slots(&mut self, n: usize) -> u16 {
        let base = self.next_flat;
        self.next_flat = base
            .checked_add(n as u16)
            .expect("frame exceeds 65535 slots");
        self.max_flat = self.max_flat.max(self.next_flat);
        base
    }

    fn take_flags(&mut self) -> Vec<Flag> {
        let f = std::mem::take(&mut self.flags[self.form_ix]);
        self.form_ix += 1;
        f
    }

    fn emit(&mut self, i: Instr) {
        self.code.push(i);
    }

    /// Emits a placeholder branch, returning its position for patching.
    fn emit_branch(&mut self, conditional: bool) -> usize {
        let pos = self.code.len();
        self.emit(if conditional {
            Instr::JumpIfFalse(u32::MAX)
        } else {
            Instr::Jump(u32::MAX)
        });
        pos
    }

    fn patch_here(&mut self, pos: usize) {
        let here = self.code.len() as u32;
        match &mut self.code[pos] {
            Instr::Jump(t) | Instr::JumpIfFalse(t) => *t = here,
            other => unreachable!("patching non-branch {other:?}"),
        }
    }
}

/// Compiles one function (a lambda body or a top-level form) into a
/// block with block-relative jump targets. Returns `(code, frame_size)`.
/// Lambdas additionally register a [`Template`] (entry patched at link).
fn compile_fn(
    b: &mut Builder,
    body: &Expr,
    root: Option<&Rc<LambdaDef>>,
    cap_cells: Vec<bool>,
) -> (Vec<Instr>, u16) {
    let root_slots = root.map_or(0, |def| def.frame_size());
    let mut analysis = Analysis {
        stack: Vec::new(),
        out: Vec::new(),
        lam: 0,
    };
    if root.is_some() {
        analysis.out.push(vec![Flag::default(); root_slots]);
        analysis.stack.push(AEntry {
            owned: Some(0),
            lam: 0,
        });
    }
    analysis.walk(body);

    let mut st = FnState {
        code: Vec::new(),
        scopes: Vec::new(),
        free: root.map_or_else(Vec::new, |def| def.free.clone()),
        cap_cells,
        next_flat: root_slots as u16,
        max_flat: root_slots as u16,
        flags: analysis.out,
        form_ix: 0,
    };
    if root.is_some() {
        let flags = st.take_flags();
        let binds: Vec<SlotBind> = flags
            .iter()
            .enumerate()
            .map(|(i, f)| SlotBind {
                flat: i as u16,
                cell: f.captured && f.assigned,
                checked: false,
            })
            .collect();
        // Prologue: assignment-converted parameters move into fresh cells.
        for bind in &binds {
            if bind.cell {
                st.emit(Instr::BoxLocal(bind.flat));
            }
        }
        st.scopes.push(Scope { binds });
    }
    gen(b, &mut st, body, true);
    st.emit(Instr::Return);
    debug_assert_eq!(st.form_ix, st.flags.len(), "analysis/codegen form drift");
    (st.code, st.max_flat)
}

fn gen(b: &mut Builder, st: &mut FnState, e: &Expr, tail: bool) {
    match e {
        Expr::Quote(d) => {
            let ix = b.const_ix(d);
            st.emit(Instr::Const(ix));
        }
        Expr::Var(v) => match st.resolve(*v) {
            Loc::Local(bind) => st.emit(if bind.cell {
                Instr::LoadLocalCell(bind.flat)
            } else if bind.checked {
                Instr::LoadLocalChecked(bind.flat)
            } else {
                Instr::LoadLocal(bind.flat)
            }),
            Loc::Cap(i, cell) => st.emit(if cell {
                Instr::LoadCaptureCell(i)
            } else {
                Instr::LoadCapture(i)
            }),
        },
        Expr::Global(g) => st.emit(Instr::LoadGlobal(*g)),
        Expr::PrimRef(p) => st.emit(Instr::PrimVal(*p)),
        Expr::Lambda(def) => {
            let mut caps = Vec::with_capacity(def.free.len());
            let mut cells = Vec::with_capacity(def.free.len());
            for fv in &def.free {
                match st.resolve(*fv) {
                    Loc::Local(bind) => {
                        debug_assert!(
                            !bind.checked,
                            "captured letrec slots are assignment-converted"
                        );
                        caps.push(CapSrc::Local(bind.flat));
                        cells.push(bind.cell);
                    }
                    Loc::Cap(i, cell) => {
                        caps.push(CapSrc::Capture(i));
                        cells.push(cell);
                    }
                }
            }
            let (code, frame_size) = compile_fn(b, &def.body, Some(def), cells);
            b.templates[def.id as usize] = Some(Template {
                def: def.clone(),
                entry: 0, // patched at link
                frame_size,
                captures: caps,
            });
            b.funcs.push(FnBlock {
                code,
                owner: Owner::Lambda(def.id),
            });
            st.emit(Instr::MakeClosure(def.id));
        }
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => {
            gen(b, st, cond, false);
            let to_else = st.emit_branch(true);
            gen(b, st, then_branch, tail);
            let to_end = st.emit_branch(false);
            st.patch_here(to_else);
            gen(b, st, else_branch, tail);
            st.patch_here(to_end);
        }
        Expr::App { func, args } => {
            if let Expr::PrimRef(p) = func.as_ref() {
                if simple_prim(*p) {
                    for a in args.iter() {
                        gen(b, st, a, false);
                    }
                    st.emit(Instr::CallPrim {
                        prim: *p,
                        argc: args.len() as u16,
                    });
                    if tail {
                        st.emit(Instr::Return);
                    }
                    return;
                }
            }
            let site = b.site_for(func);
            gen(b, st, func, false);
            for a in args.iter() {
                gen(b, st, a, false);
            }
            let argc = args.len() as u16;
            st.emit(if tail {
                Instr::TailCall { argc, site }
            } else {
                Instr::Call { argc, site }
            });
        }
        Expr::Seq(exprs) => {
            let (last, init) = exprs.split_last().expect("begin is non-empty");
            for a in init {
                gen(b, st, a, false);
                st.emit(Instr::Pop);
            }
            gen(b, st, last, tail);
        }
        Expr::SetLocal { var, value } => {
            gen(b, st, value, false);
            match st.resolve(*var) {
                Loc::Local(bind) => st.emit(if bind.cell {
                    Instr::StoreLocalCell(bind.flat)
                } else {
                    Instr::StoreLocal(bind.flat)
                }),
                Loc::Cap(i, cell) => {
                    debug_assert!(cell, "assigned captures are assignment-converted");
                    let _ = cell;
                    st.emit(Instr::StoreCaptureCell(i));
                }
            }
        }
        Expr::SetGlobal { index, value } => {
            gen(b, st, value, false);
            st.emit(Instr::StoreGlobal(*index));
        }
        Expr::Let { inits, body } => {
            for a in inits.iter() {
                gen(b, st, a, false);
            }
            let flags = st.take_flags();
            let base = st.alloc_slots(inits.len());
            let binds: Vec<SlotBind> = flags
                .iter()
                .enumerate()
                .map(|(i, f)| SlotBind {
                    flat: base + i as u16,
                    cell: f.captured && f.assigned,
                    checked: false,
                })
                .collect();
            for bind in binds.iter().rev() {
                st.emit(if bind.cell {
                    Instr::PopLocalCell(bind.flat)
                } else {
                    Instr::PopLocal(bind.flat)
                });
            }
            st.scopes.push(Scope { binds });
            gen(b, st, body, tail);
            st.scopes.pop();
            st.next_flat = base;
        }
        Expr::LetRec { inits, body } => {
            let flags = st.take_flags();
            let base = st.alloc_slots(inits.len());
            let binds: Vec<SlotBind> = flags
                .iter()
                .enumerate()
                .map(|(i, f)| SlotBind {
                    flat: base + i as u16,
                    // Any captured letrec binding is converted: its init
                    // assignment may happen after a sibling closure
                    // captured the slot.
                    cell: f.captured,
                    checked: !f.captured,
                })
                .collect();
            for bind in &binds {
                st.emit(if bind.cell {
                    Instr::MakeCell(bind.flat)
                } else {
                    Instr::ClearLocal(bind.flat)
                });
            }
            st.scopes.push(Scope {
                binds: binds.clone(),
            });
            for (i, a) in inits.iter().enumerate() {
                gen(b, st, a, false);
                st.emit(if binds[i].cell {
                    Instr::InitLocalCell(binds[i].flat)
                } else {
                    Instr::PopLocal(binds[i].flat)
                });
            }
            gen(b, st, body, tail);
            st.scopes.pop();
            st.next_flat = base;
        }
        Expr::TermC { body, label } => {
            gen(b, st, body, false);
            let ix = b.label_ix(label);
            st.emit(Instr::WrapTerm(ix));
        }
    }
}

// ---------------------------------------------------------------------
// Link: concatenate blocks, rebase branches, thread jump chains.
// ---------------------------------------------------------------------

fn link(
    b: Builder,
    mut top: Vec<TopCode>,
    planned: bool,
    plan_token: u64,
    fuse: bool,
) -> CompiledProgram {
    let mut templates: Vec<Template> = b
        .templates
        .into_iter()
        .map(|t| t.expect("every lambda id compiled"))
        .collect();
    let mut code: Vec<Instr> = Vec::with_capacity(b.funcs.iter().map(|f| f.code.len()).sum());
    for f in b.funcs {
        let base = code.len() as u32;
        match f.owner {
            Owner::Lambda(id) => templates[id as usize].entry = base,
            Owner::Top(i) => top[i].entry = base,
        }
        code.extend(f.code.into_iter().map(|i| match i {
            Instr::Jump(t) => Instr::Jump(t + base),
            Instr::JumpIfFalse(t) => Instr::JumpIfFalse(t + base),
            other => other,
        }));
    }
    // Jump threading: land branches directly on their final target.
    for i in 0..code.len() {
        let target = match code[i] {
            Instr::Jump(t) | Instr::JumpIfFalse(t) => t,
            _ => continue,
        };
        let mut t = target;
        let mut hops = 0;
        while let Instr::Jump(next) = code[t as usize] {
            if next == t || hops > 64 {
                break;
            }
            t = next;
            hops += 1;
        }
        if t != target {
            match &mut code[i] {
                Instr::Jump(x) | Instr::JumpIfFalse(x) => *x = t,
                _ => unreachable!(),
            }
        }
    }
    if fuse {
        fuse_pairs(&mut code);
    }
    CompiledProgram {
        code,
        consts: b.consts,
        labels: b.labels,
        templates,
        top,
        sites: b.sites,
        planned,
        plan_token,
    }
}

/// Superinstruction fusion, "pad with skip" style: the fused variant
/// replaces the first instruction of a hot adjacent pair; the second
/// instruction keeps its arena slot and the machine steps over it after
/// the fused handler runs. Control flow that *enters* at the second slot
/// executes the original instruction there, so no jump target needs
/// remapping and fusion can never change semantics — only dispatch count.
///
/// The pair set was chosen from dynamic dispatch-pair profiles of the
/// fig10 workloads (`MachineConfig::profile_pairs` over the unfused
/// stream); the interp-crate test `fused_pairs_cover_hot_profile` keeps
/// the choice honest. The scan is greedy left-to-right without overlap:
/// after a fusion the second slot is skipped as a further first operand.
fn fuse_pairs(code: &mut [Instr]) {
    let mut i = 0;
    while i + 1 < code.len() {
        let fused = match (code[i], code[i + 1]) {
            (Instr::LoadLocal(a), Instr::LoadLocal(b)) => Some(Instr::LoadLocal2(a, b)),
            (Instr::LoadLocal(local), Instr::CallPrim { prim, argc }) => {
                Some(Instr::LoadLocalCallPrim { local, prim, argc })
            }
            (Instr::Const(cix), Instr::CallPrim { prim, argc }) => {
                Some(Instr::ConstCallPrim { cix, prim, argc })
            }
            (Instr::CallPrim { prim, argc }, Instr::JumpIfFalse(target)) => {
                Some(Instr::CallPrimJumpIfFalse { prim, argc, target })
            }
            (Instr::LoadLocal(local), Instr::Return) => Some(Instr::LoadLocalReturn(local)),
            _ => None,
        };
        match fused {
            Some(f) => {
                code[i] = f;
                i += 2;
            }
            None => i += 1,
        }
    }
}
