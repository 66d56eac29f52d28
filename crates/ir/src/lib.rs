//! Plan-directed flat-IR compilation for λSCT.
//!
//! The tree-walking CEK machine pays for its generality on every step: it
//! clones `Rc<Expr>` nodes, pushes a continuation frame per argument, walks
//! `Rc<Frame>` environment chains on every variable, and re-decides at
//! every application whether the callee is statically discharged, guarded,
//! or monitored. This crate moves all of those decisions *offline* — the
//! offline-specialization move of size-change analysis in offline partial
//! evaluation, applied to the enforcement regime of the PLDI'19 paper:
//!
//! * resolved [`Expr`](sct_lang::ast::Expr) trees are flattened into one
//!   contiguous arena of fixed-size [`Instr`]uctions with jump-threaded
//!   `if`/`cond`;
//! * lexical `(depth, slot)` addresses become verified flat frame indices
//!   (one locals frame per activation, sibling scopes reuse slots);
//! * constants are pooled (deduplicated by quote-site identity, so `eq?`
//!   sharing semantics are preserved);
//! * closures become *flat*: each `lambda` carries a [`CapSrc`] list and an
//!   activation copies exactly the captured slots instead of chaining
//!   frames. Captured slots that are mutated (`set!`) or `letrec`-bound are
//!   assignment-converted to shared cells, so mutation and recursive
//!   binding semantics are unchanged;
//! * every call site is emitted with a baked-in [`SiteAction`] derived from
//!   the [`EnforcementPlan`](sct_core::plan::EnforcementPlan):
//!   [`SiteAction::Skip`] (statically discharged —
//!   zero monitor work, not even a fast-path probe), [`SiteAction::Guarded`]
//!   (inline domain guard, then skip), [`SiteAction::Monitored`] (the plan
//!   says monitor: the probe is elided because the compiler already knows
//!   it would miss), or [`SiteAction::Generic`] (first-class callee: full
//!   dynamic dispatch).
//!
//! The machine in `sct-interp` executes this IR as a dispatch loop while
//! keeping the CEK machine's continuation, blame, and size-change-table
//! semantics bit-for-bit (the differential oracle suite in the root crate
//! proves value, blame, and monitor-counter agreement over the whole
//! corpus).
//!
//! [`CODEGEN_VERSION`] identifies the compilation scheme; `sct-symbolic`
//! folds it into plan-cache digests so persisted enforcement decisions can
//! never be replayed against a machine whose baked-in call-site semantics
//! have drifted.

#![deny(missing_docs)]

mod compile;
mod dump;

pub use compile::{compile, compile_unfused};
pub use dump::dump;

use sct_core::plan::PlanDomain;
use sct_lang::ast::{GlobalIndex, LambdaDef, LambdaId};
use sct_lang::Prim;
use sct_sexpr::Datum;
use std::rc::Rc;

/// Version of the IR compilation scheme. Bump on any change to instruction
/// semantics, call-site specialization, or the capture/boxing rules —
/// `sct-symbolic` mixes it into every plan-cache digest, so a bump
/// invalidates persisted plans rather than letting them drive a machine
/// they were not planned for.
///
/// v2: every application expression owns a distinct call site, and the
/// linker fuses hot adjacent instruction pairs into superinstructions.
pub const CODEGEN_VERSION: u32 = 2;

/// A flat local index within the current activation's frame.
pub type LocalIx = u16;

/// Index into [`CompiledProgram::consts`].
pub type ConstIx = u32;

/// Index into [`CompiledProgram::labels`].
pub type LabelIx = u32;

/// Index into [`CompiledProgram::sites`].
pub type SiteIx = u32;

/// One fixed-size IR instruction.
///
/// The operand stack holds plain values; the locals frame holds slot
/// entries (value or shared cell) managed by the machine.
/// Cell-addressed variants are emitted exactly for the slots the compiler
/// assignment-converted; the split keeps the common immutable path free of
/// indirection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Push constant `consts[i]` (materialized once per machine, shared
    /// per quote site — `eq?` semantics match the tree-walker's cache).
    Const(ConstIx),
    /// Push `Value::Void`.
    Void,
    /// Push local slot `i` (never `Undefined` by construction).
    LoadLocal(LocalIx),
    /// Push local slot `i`, erroring on `Undefined` (`letrec` slot read
    /// before initialization).
    LoadLocalChecked(LocalIx),
    /// Push the contents of the cell in local slot `i`, erroring on
    /// `Undefined`.
    LoadLocalCell(LocalIx),
    /// Push capture `i` of the current closure.
    LoadCapture(LocalIx),
    /// Push the contents of capture cell `i`, erroring on `Undefined`.
    LoadCaptureCell(LocalIx),
    /// `set!` a plain local: pop the value into slot `i`, push `Void`.
    StoreLocal(LocalIx),
    /// `set!` a cell local: pop the value into the cell at slot `i`, push
    /// `Void`.
    StoreLocalCell(LocalIx),
    /// `set!` a captured variable: pop the value into capture cell `i`,
    /// push `Void` (captured + assigned slots are always cells).
    StoreCaptureCell(LocalIx),
    /// Push global `g`, erroring when still undefined.
    LoadGlobal(GlobalIndex),
    /// `set!` a global: pop the value into global `g`, push `Void`.
    StoreGlobal(GlobalIndex),
    /// Push the primitive as a first-class value.
    PrimVal(Prim),
    /// Allocate a closure from [`CompiledProgram::templates`]`[id]`,
    /// copying the template's capture sources from the current activation.
    MakeClosure(LambdaId),
    /// Unconditional jump to an absolute arena index.
    Jump(u32),
    /// Pop the test; jump when it is `#f`.
    JumpIfFalse(u32),
    /// Pop and discard (sequencing).
    Pop,
    /// Pop into local slot `i` (`let` binding / `letrec` init; no `Void`).
    PopLocal(LocalIx),
    /// Pop into a *fresh* cell stored at slot `i` (`let` binding of an
    /// assignment-converted variable).
    PopLocalCell(LocalIx),
    /// Pop into the existing cell at slot `i` (`letrec` init of a captured
    /// binding).
    InitLocalCell(LocalIx),
    /// Store `Undefined` into slot `i` (`letrec` prologue; slots are
    /// reused across sibling scopes, so the pre-initialization sentinel
    /// must be re-established explicitly).
    ClearLocal(LocalIx),
    /// Replace slot `i` with a fresh cell holding `Undefined` (`letrec`
    /// prologue for captured bindings).
    MakeCell(LocalIx),
    /// Move the argument already bound in slot `i` into a fresh cell
    /// (function prologue for captured-and-assigned parameters).
    BoxLocal(LocalIx),
    /// Pop a value, wrap it per Figure 7 with blame label `labels[i]`.
    WrapTerm(LabelIx),
    /// Call a *simple* primitive (one that needs no machine cooperation):
    /// pop `argc` arguments, push the result. Not a monitored application.
    CallPrim {
        /// The primitive.
        prim: Prim,
        /// Argument count.
        argc: u16,
    },
    /// Apply: stack holds `[callee, arg1..argN]`; `site` carries the
    /// baked-in enforcement decision. Pushes a return frame.
    Call {
        /// Argument count.
        argc: u16,
        /// Call-site index.
        site: SiteIx,
    },
    /// As [`Instr::Call`] but in tail position: the caller's activation is
    /// replaced, keeping the continuation flat.
    TailCall {
        /// Argument count.
        argc: u16,
        /// Call-site index.
        site: SiteIx,
    },
    /// Pop the return value and unwind to the caller (or finish the
    /// current top-level form).
    Return,
    // ----- superinstructions (link-time fusion) ----------------------
    //
    // Each fused variant replaces the *first* instruction of a hot
    // adjacent pair; the second instruction stays in its arena slot and
    // the machine skips it (`pc += 1`) after executing the fused
    // handler. Jumps into the second slot therefore keep their original
    // semantics without any target remapping ("pad with skip").
    /// Fused `LoadLocal a; LoadLocal b`.
    LoadLocal2(LocalIx, LocalIx),
    /// Fused `LoadLocal i; CallPrim prim argc`.
    LoadLocalCallPrim {
        /// The local pushed first.
        local: LocalIx,
        /// The primitive.
        prim: Prim,
        /// Argument count.
        argc: u16,
    },
    /// Fused `Const i; CallPrim prim argc`.
    ConstCallPrim {
        /// The constant pushed first.
        cix: ConstIx,
        /// The primitive.
        prim: Prim,
        /// Argument count.
        argc: u16,
    },
    /// Fused `CallPrim prim argc; JumpIfFalse target`.
    CallPrimJumpIfFalse {
        /// The primitive.
        prim: Prim,
        /// Argument count.
        argc: u16,
        /// Branch target when the result is `#f`.
        target: u32,
    },
    /// Fused `LoadLocal i; Return`.
    LoadLocalReturn(LocalIx),
}

impl Instr {
    /// Short mnemonic for profiling output and dump listings.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instr::Const(_) => "const",
            Instr::Void => "void",
            Instr::LoadLocal(_) => "load-local",
            Instr::LoadLocalChecked(_) => "load-local-checked",
            Instr::LoadLocalCell(_) => "load-cell",
            Instr::LoadCapture(_) => "load-capture",
            Instr::LoadCaptureCell(_) => "load-capture-cell",
            Instr::StoreLocal(_) => "store-local",
            Instr::StoreLocalCell(_) => "store-cell",
            Instr::StoreCaptureCell(_) => "store-capture-cell",
            Instr::LoadGlobal(_) => "load-global",
            Instr::StoreGlobal(_) => "store-global",
            Instr::PrimVal(_) => "prim",
            Instr::MakeClosure(_) => "make-closure",
            Instr::Jump(_) => "jump",
            Instr::JumpIfFalse(_) => "jump-if-false",
            Instr::Pop => "pop",
            Instr::PopLocal(_) => "pop-local",
            Instr::PopLocalCell(_) => "pop-cell",
            Instr::InitLocalCell(_) => "init-cell",
            Instr::ClearLocal(_) => "clear-local",
            Instr::MakeCell(_) => "make-cell",
            Instr::BoxLocal(_) => "box-local",
            Instr::WrapTerm(_) => "wrap-term",
            Instr::CallPrim { .. } => "call-prim",
            Instr::Call { .. } => "call",
            Instr::TailCall { .. } => "tail-call",
            Instr::Return => "return",
            Instr::LoadLocal2(..) => "load-local2",
            Instr::LoadLocalCallPrim { .. } => "load-local+call-prim",
            Instr::ConstCallPrim { .. } => "const+call-prim",
            Instr::CallPrimJumpIfFalse { .. } => "call-prim+jump-if-false",
            Instr::LoadLocalReturn(_) => "load-local+return",
        }
    }
}

/// Where one captured slot of a closure template comes from, relative to
/// the activation that executes the `MakeClosure`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapSrc {
    /// Copy local slot `i` of the creating activation (a cell slot is
    /// copied as the shared cell).
    Local(LocalIx),
    /// Copy capture `i` of the creating closure.
    Capture(LocalIx),
}

/// The compile-time enforcement decision baked into a call site. Actions
/// other than [`SiteAction::Generic`] apply only when the runtime callee
/// is a closure of the expected λ (checked with one comparison); anything
/// else falls back to generic dispatch, so specialization can never
/// change behavior — only skip work the decision proves redundant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiteAction {
    /// Callee unknown at compile time: full dynamic dispatch, including
    /// the per-λ fast-path probe.
    Generic,
    /// Callee statically bound to λ `lambda`, which the plan discharged
    /// unconditionally: no monitor work at all, not even the probe.
    Skip {
        /// The expected callee λ.
        lambda: LambdaId,
    },
    /// Callee statically bound to λ `lambda`, discharged under per-
    /// parameter domain assumptions: check the guard inline; in-domain
    /// calls skip the monitor, out-of-domain calls fall back to it.
    Guarded {
        /// The expected callee λ.
        lambda: LambdaId,
        /// One domain per parameter, in order.
        doms: Rc<[PlanDomain]>,
    },
    /// Callee statically bound to λ `lambda` and the plan (or its absence)
    /// keeps it monitored: the fast-path probe is elided because the
    /// compiler already knows it would miss.
    Monitored {
        /// The expected callee λ.
        lambda: LambdaId,
    },
}

/// One call site's baked-in metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The enforcement decision.
    pub action: SiteAction,
}

/// Compiled form of one `lambda`: entry point, frame shape, and capture
/// list (ordered exactly as [`LambdaDef::free`], which is what keeps flat
/// closure fingerprints identical to the tree-walker's).
#[derive(Debug, Clone)]
pub struct Template {
    /// The source lambda (arity, name, variadicity, free list).
    pub def: Rc<LambdaDef>,
    /// Absolute entry index into [`CompiledProgram::code`].
    pub entry: u32,
    /// Total locals the activation needs (parameters, rest list, and the
    /// high-water mark of nested `let`/`letrec` scopes).
    pub frame_size: u16,
    /// Capture sources, one per [`LambdaDef::free`] entry.
    pub captures: Vec<CapSrc>,
}

/// Compiled form of one top-level form.
#[derive(Debug, Clone)]
pub struct TopCode {
    /// Absolute entry index into [`CompiledProgram::code`].
    pub entry: u32,
    /// Locals the form's activation needs.
    pub frame_size: u16,
    /// `Some(g)` for `(define name e)` — the produced value is stored in
    /// global `g`; `None` for an expression form.
    pub define: Option<GlobalIndex>,
}

/// A whole program lowered to the flat IR: one contiguous instruction
/// arena plus the pools and tables its instructions index.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The instruction arena (every function and top form, concatenated).
    pub code: Vec<Instr>,
    /// Constant pool, deduplicated by quote-site identity.
    pub consts: Vec<Rc<Datum>>,
    /// Blame-label pool for `terminating/c` forms.
    pub labels: Vec<Rc<str>>,
    /// Lambda templates, indexed by [`LambdaId`].
    pub templates: Vec<Template>,
    /// Top-level forms in program order.
    pub top: Vec<TopCode>,
    /// Call-site table: site 0 is the one [`SiteAction::Generic`] site,
    /// shared by every application that no global binds statically.
    pub sites: Vec<CallSite>,
    /// Whether an enforcement plan was baked in at compilation time.
    pub planned: bool,
    /// Identity token of the plan the image was compiled against:
    /// `EnforcementPlan::decisions_fingerprint` for a planned compile,
    /// `0` for an unplanned one. The machine checks it against its
    /// configured plan, so an image baked from one plan can never be
    /// silently paired with another.
    pub plan_token: u64,
}

impl CompiledProgram {
    /// Number of call sites specialized beyond [`SiteAction::Generic`].
    pub fn specialized_sites(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| s.action != SiteAction::Generic)
            .count()
    }
}
