//! Per-`define` content digests: the cache keys of the persistent plan
//! store.
//!
//! The hybrid pre-pass is deterministic given (a) the `define`'s resolved
//! AST, (b) the resolved ASTs of every global it can transitively reach,
//! (c) which of those globals the program `set!`s anywhere (the mutation
//! taint), (d) the pinned signatures of those globals (a callee's pinned
//! signature fixes its summary's guard, and so the stubs its callers
//! see), (e) which of those globals' initializers failed to evaluate
//! (the only input source order decides: an initializer that reads a
//! global defined after it fails), and (f) the rest of the planner
//! configuration. A [`ProgramDigests::key`] folds exactly those inputs —
//! plus the codec, hash-spec and planner versions — into one 128-bit
//! content address, so:
//!
//! * editing one `define` changes only the keys of that define and of the
//!   defines that (transitively) reference it — every untouched define is
//!   a cache hit;
//! * the digest never mentions λ ids or global indices (it hashes
//!   *structure* and *names*), so recompiling an edited file does not
//!   invalidate entries for structurally identical defines even though
//!   their λ ids shifted;
//! * changing any budget, ladder, refutation, or signature knob changes
//!   every affected key — a cached decision can never be replayed under a
//!   configuration it was not computed for.
//!
//! # Merkle component digests
//!
//! Inputs (b)–(e) are folded per strongly connected component of the
//! global reference graph, callees first: a component's digest hashes
//! each member's `(name, structural hash, mutated bit, pinned signature)`,
//! a failed member's structural hash closed by one extra tag byte,
//! with the members sorted by *name*, then the digests of the components
//! its members reference, sorted by *digest value* and deduplicated. A
//! key folds only its define's own component digest, which commits to
//! everything the define reaches. Building every digest costs O(edges)
//! for the whole program, and since nothing is ordered by global index
//! or source position, the keys do not depend on the order the defines
//! appear in, except through a failed bit, which marks exactly where the
//! order changes a verdict: a shuffled program replays a store warmed in
//! any other order. Entries persisted under an earlier key layout simply miss
//! once and are replanned under the new keys.
//!
//! # Examples
//!
//! ```
//! use sct_lang::compile_program;
//! use sct_symbolic::digest::ProgramDigests;
//! use sct_symbolic::exec::GlobalSnapshot;
//! use sct_symbolic::pipeline::{PlanConfig, ProgramIndex};
//!
//! let cfg = PlanConfig::default();
//! let keys = |src: &str| {
//!     let p = compile_program(src).unwrap();
//!     let index = ProgramIndex::build(&p);
//!     let snapshot = GlobalSnapshot::build(&p, &cfg.exec);
//!     let d = ProgramDigests::new(&p, &index, &snapshot, &cfg);
//!     (d.key(&p, 0), d.key(&p, 1))
//! };
//! let k1 = keys("(define (dec x) (- x 1))
//!                (define (f x) (if (zero? x) 0 (f (dec x))))");
//! let k2 = keys("(define (dec x) (- x 2))
//!                (define (f x) (if (zero? x) 0 (f (dec x))))");
//! // f references dec, so editing dec invalidates BOTH keys …
//! assert_ne!(k1.0, k2.0);
//! assert_ne!(k1.1, k2.1);
//! // … while an identical compile reproduces them exactly.
//! assert_eq!(k1, keys("(define (dec x) (- x 1))
//!                      (define (f x) (if (zero? x) 0 (f (dec x))))"));
//! ```

use crate::exec::{self, GlobalSnapshot};
use crate::pipeline::{PlanConfig, ProgramIndex, Signature};
use crate::verify;
use sct_core::plan::PlanDomain;
use sct_core::plan_codec::PLAN_CODEC_SCHEMA;
use sct_core::stable::{Digest128, StableHasher, STABLE_HASH_VERSION};
use sct_lang::ast::{Expr, LambdaDef, Program, TopForm};
use sct_sexpr::Datum;

/// Structural digests of one compiled [`Program`] under one
/// [`PlanConfig`], computed once and then queried per `define` via
/// [`ProgramDigests::key`].
#[derive(Debug)]
pub struct ProgramDigests<'i> {
    /// Structural hash of each global's define initializer(s), by index.
    per_global: Vec<Digest128>,
    /// The Merkle digest of each component of the reference graph,
    /// indexed like the program index's components (see the module docs).
    per_component: Vec<Digest128>,
    /// The program-wide planner knobs (pinned signatures enter through
    /// the component digests instead).
    config: Digest128,
    /// The reference/mutation structure, the planner's own.
    index: &'i ProgramIndex,
}

impl<'i> ProgramDigests<'i> {
    /// Hashes every global's initializer(s) in one walk of the program,
    /// then digests every component in one pass over `index`'s reference
    /// graph. `snapshot` supplies the failed-initializer bits.
    pub fn new(
        program: &Program,
        index: &'i ProgramIndex,
        snapshot: &GlobalSnapshot,
        config: &PlanConfig,
    ) -> ProgramDigests<'i> {
        let n = program.global_names.len();
        let mut hashers: Vec<StableHasher> = (0..n).map(|_| StableHasher::new()).collect();
        for form in &program.top_level {
            // Top-level expressions are not symbolically evaluated by the
            // verifier's executor; only their `set!` targets matter, and
            // those are in the index.
            if let TopForm::Define { index, expr } = form {
                hash_expr(expr, program, &mut hashers[*index as usize]);
            }
        }
        // A failed initializer (one reading a global defined after it)
        // fails in that source order only, so its readers' decisions
        // depend on the order: the bit keeps orders from sharing entries.
        // A tag no expression starts with, and only on failed globals, so
        // every other key keeps its bytes.
        for (i, h) in hashers.iter_mut().enumerate() {
            if snapshot.failed(i as u32) {
                h.write_u8(FAILED_TAG);
            }
        }
        let per_global: Vec<Digest128> = hashers.iter().map(StableHasher::finish128).collect();
        // Callees first, so every callee digest exists when a caller's
        // component folds it in.
        let mut per_component: Vec<Digest128> = Vec::with_capacity(index.components().len());
        for component in index.components() {
            let mut h = StableHasher::new();
            let mut members = component.members.to_vec();
            members.sort_unstable_by_key(|&g| &program.global_names[g as usize]);
            h.write_u64(members.len() as u64);
            for g in members {
                let name = &program.global_names[g as usize];
                h.write_str(name);
                write_digest(per_global[g as usize], &mut h);
                h.write_u8(u8::from(index.is_mutated(g)));
                hash_signature(config.signatures.get(name), &mut h);
            }
            let mut callees: Vec<Digest128> = component
                .callees
                .iter()
                .map(|&c| per_component[c as usize])
                .collect();
            callees.sort_unstable();
            callees.dedup();
            h.write_u64(callees.len() as u64);
            for d in callees {
                write_digest(d, &mut h);
            }
            per_component.push(h.finish128());
        }
        let mut config_hash = StableHasher::new();
        hash_config(config, &mut config_hash);
        ProgramDigests {
            per_global,
            per_component,
            config: config_hash.finish128(),
            index,
        }
    }

    /// The content-address key for planning global `index`: a
    /// 32-hex-character digest committing to everything the decision can
    /// depend on (see the module docs). Equivalent to
    /// [`ProgramDigests::key_at`] with occurrence 0 — callers planning a
    /// program with shadowed (re-`define`d) names must use `key_at`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range for the program the digests
    /// were built from.
    pub fn key(&self, program: &Program, index: u32) -> String {
        self.key_at(program, index, 0)
    }

    /// [`ProgramDigests::key`] for the `occurrence`-th `define` form of
    /// `index` (0-based, program order). The per-global structural hash
    /// covers *all* defines of a name, but a shadowed name yields one
    /// decision per form — the occurrence count keeps those entries from
    /// aliasing each other in the store. O(1) in program size.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range for the program the digests
    /// were built from.
    pub fn key_at(&self, program: &Program, index: u32, occurrence: u32) -> String {
        let mut h = StableHasher::new();
        // Version pins: any bump invalidates every persisted entry. The IR
        // codegen version is part of the key because cached decisions are
        // *baked into call sites* by `sct-ir`: a plan persisted under one
        // compilation scheme must never silently direct a machine whose
        // call-site semantics (specialization rules, guard placement)
        // have changed. The plan codec version covers the contract summary
        // too: it travels inside the decision's entry.
        h.write_u32(STABLE_HASH_VERSION);
        h.write_str(PLAN_CODEC_SCHEMA);
        h.write_u32(sct_ir::CODEGEN_VERSION);
        h.write_u32(PLANNER_VERSION);
        // The define itself.
        h.write_str(&program.global_names[index as usize]);
        h.write_u32(occurrence);
        write_digest(self.per_global[index as usize], &mut h);
        // Everything reachable from it, with the mutation bits and pinned
        // signatures: its component's Merkle digest.
        let component = self.index.component_of(index);
        write_digest(self.per_component[component as usize], &mut h);
        // The rest of the planner configuration.
        write_digest(self.config, &mut h);
        h.finish128().to_hex()
    }
}

/// Version of the decision the planner derives from a key's inputs,
/// bumped when a planner fix changes some decisions without changing
/// those inputs. 1: atoms in reason text are numbered per exploration,
/// not program-wide. 2: a `Static` detail lists only the define's own
/// λs, not every callee's graph set.
const PLANNER_VERSION: u32 = 2;

fn write_digest(d: Digest128, h: &mut StableHasher) {
    h.write_u64(d.hi);
    h.write_u64(d.lo);
}

/// Hashes the program-wide knobs of `config`, selected field by field:
/// wiring that cannot change a decision (deadline, metrics, summaries
/// on/off) stays out of the key.
fn hash_config(config: &PlanConfig, h: &mut StableHasher) {
    h.write_u64(config.exec.step_budget);
    // The verifier's fixed budgets: a change to one re-keys every entry.
    h.write_u64(exec::MAX_OUTCOMES as u64);
    h.write_u32(exec::HAVOC_BUDGET);
    h.write_u64(exec::MAX_CHAIN as u64);
    h.write_u32(verify::RESULT_HAVOC_DEPTH);
    h.write_u64(verify::LJB_CAP as u64);
    h.write_u8(u8::from(config.refute));
}

/// Hashes one global's pinned signature, if any: it decides the global's
/// own ladder and, through its contract summary, its callers' stubs.
fn hash_signature(signature: Option<&Signature>, h: &mut StableHasher) {
    match signature {
        Some((domains, result)) => {
            h.write_u8(1);
            h.write_u64(domains.len() as u64);
            for d in domains {
                h.write_u8(domain_tag(*d));
            }
            h.write_u8(domain_tag(*result));
        }
        None => h.write_u8(0),
    }
}

fn domain_tag(d: PlanDomain) -> u8 {
    match d {
        PlanDomain::Nat => 1,
        PlanDomain::Pos => 2,
        PlanDomain::Int => 3,
        PlanDomain::List => 4,
        PlanDomain::Any => 5,
    }
}

/// Closes a failed global's structural hash. [`hash_expr`] tags are
/// `1..=13`, so no initializer can hash to the same bytes.
const FAILED_TAG: u8 = 14;

/// Hashes an expression structurally: tags per variant, names instead of
/// global indices, and *no λ ids* — two compiles of structurally equal
/// code digest identically even when ids differ.
fn hash_expr(e: &Expr, program: &Program, h: &mut StableHasher) {
    match e {
        Expr::Quote(d) => {
            h.write_u8(1);
            hash_datum(d, h);
        }
        Expr::Var(v) => {
            h.write_u8(2);
            h.write_u32(u32::from(v.depth));
            h.write_u32(u32::from(v.slot));
        }
        Expr::Global(i) => {
            h.write_u8(3);
            h.write_str(&program.global_names[*i as usize]);
        }
        Expr::PrimRef(p) => {
            h.write_u8(4);
            h.write_str(&format!("{p:?}"));
        }
        Expr::Lambda(def) => {
            h.write_u8(5);
            hash_lambda(def, program, h);
        }
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => {
            h.write_u8(6);
            hash_expr(cond, program, h);
            hash_expr(then_branch, program, h);
            hash_expr(else_branch, program, h);
        }
        Expr::App { func, args } => {
            h.write_u8(7);
            hash_expr(func, program, h);
            h.write_u64(args.len() as u64);
            for a in args.iter() {
                hash_expr(a, program, h);
            }
        }
        Expr::Seq(exprs) => {
            h.write_u8(8);
            h.write_u64(exprs.len() as u64);
            for x in exprs.iter() {
                hash_expr(x, program, h);
            }
        }
        Expr::SetLocal { var, value } => {
            h.write_u8(9);
            h.write_u32(u32::from(var.depth));
            h.write_u32(u32::from(var.slot));
            hash_expr(value, program, h);
        }
        Expr::SetGlobal { index, value } => {
            h.write_u8(10);
            h.write_str(&program.global_names[*index as usize]);
            hash_expr(value, program, h);
        }
        Expr::Let { inits, body } => {
            h.write_u8(11);
            h.write_u64(inits.len() as u64);
            for i in inits.iter() {
                hash_expr(i, program, h);
            }
            hash_expr(body, program, h);
        }
        Expr::LetRec { inits, body } => {
            h.write_u8(12);
            h.write_u64(inits.len() as u64);
            for i in inits.iter() {
                hash_expr(i, program, h);
            }
            hash_expr(body, program, h);
        }
        Expr::TermC { body, label } => {
            h.write_u8(13);
            h.write_str(label);
            hash_expr(body, program, h);
        }
    }
}

fn hash_lambda(def: &LambdaDef, program: &Program, h: &mut StableHasher) {
    // Deliberately NOT def.id (compile-run-specific). The name hint feeds
    // display strings in decision details, so it participates.
    match &def.name {
        Some(n) => {
            h.write_u8(1);
            h.write_str(n);
        }
        None => h.write_u8(0),
    }
    h.write_u32(u32::from(def.params));
    h.write_u8(u8::from(def.variadic));
    h.write_u64(def.free.len() as u64);
    for v in &def.free {
        h.write_u32(u32::from(v.depth));
        h.write_u32(u32::from(v.slot));
    }
    hash_expr(&def.body, program, h);
}

fn hash_datum(d: &Datum, h: &mut StableHasher) {
    match d {
        Datum::Int(i) => {
            h.write_u8(1);
            h.write_i64(*i);
        }
        Datum::BigInt(s) => {
            h.write_u8(2);
            h.write_str(s);
        }
        Datum::Bool(b) => {
            h.write_u8(3);
            h.write_u8(u8::from(*b));
        }
        Datum::Char(c) => {
            h.write_u8(4);
            h.write_u32(*c as u32);
        }
        Datum::Str(s) => {
            h.write_u8(5);
            h.write_str(s);
        }
        Datum::Sym(s) => {
            h.write_u8(6);
            h.write_str(s);
        }
        Datum::List(items) => {
            h.write_u8(7);
            h.write_u64(items.len() as u64);
            for i in items {
                hash_datum(i, h);
            }
        }
        Datum::Improper(items, tail) => {
            h.write_u8(8);
            h.write_u64(items.len() as u64);
            for i in items {
                hash_datum(i, h);
            }
            hash_datum(tail, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_lang::compile_program;

    fn digests<'i>(p: &Program, index: &'i ProgramIndex, cfg: &PlanConfig) -> ProgramDigests<'i> {
        let snapshot = GlobalSnapshot::build(p, &cfg.exec);
        ProgramDigests::new(p, index, &snapshot, cfg)
    }

    fn keys(src: &str, cfg: &PlanConfig) -> Vec<(String, String)> {
        let p = compile_program(src).unwrap();
        let index = ProgramIndex::build(&p);
        let d = digests(&p, &index, cfg);
        (0..p.global_names.len() as u32)
            .map(|i| (p.global_names[i as usize].clone(), d.key(&p, i)))
            .collect()
    }

    const TWO: &str = "(define (inc x) (+ x 1))
                       (define (sum i acc) (if (zero? i) acc (sum (- i 1) (+ acc i))))";

    #[test]
    fn identical_compiles_agree() {
        let cfg = PlanConfig::default();
        assert_eq!(keys(TWO, &cfg), keys(TWO, &cfg));
    }

    #[test]
    fn editing_one_define_rekeys_only_it() {
        let cfg = PlanConfig::default();
        let before = keys(TWO, &cfg);
        let after = keys(
            "(define (inc x) (+ x 2))
             (define (sum i acc) (if (zero? i) acc (sum (- i 1) (+ acc i))))",
            &cfg,
        );
        assert_ne!(before[0].1, after[0].1, "inc changed");
        assert_eq!(before[1].1, after[1].1, "sum untouched: key must survive");
    }

    #[test]
    fn editing_a_referenced_helper_rekeys_dependents() {
        let cfg = PlanConfig::default();
        let before = keys(
            "(define (dec x) (- x 1))
             (define (f x) (if (zero? x) 0 (f (dec x))))",
            &cfg,
        );
        let after = keys(
            "(define (dec x) (- x 2))
             (define (f x) (if (zero? x) 0 (f (dec x))))",
            &cfg,
        );
        assert_ne!(before[0].1, after[0].1);
        assert_ne!(before[1].1, after[1].1, "f reads dec: must be re-keyed");
    }

    #[test]
    fn set_bang_anywhere_rekeys_tainted_defines() {
        let cfg = PlanConfig::default();
        let before = keys(TWO, &cfg);
        let after = keys(
            "(define (inc x) (+ x 1))
             (define (sum i acc) (if (zero? i) acc (sum (- i 1) (+ acc i))))
             (set! inc (lambda (x) x))",
            &cfg,
        );
        assert_ne!(before[0].1, after[0].1, "inc is now mutated");
        assert_eq!(
            before[1].1, after[1].1,
            "sum never touches inc; its key survives the set!"
        );
    }

    #[test]
    fn config_changes_rekey() {
        let base = PlanConfig::default();
        let mut small_fuel = PlanConfig::default();
        small_fuel.exec.step_budget = 7;
        let mut pinned = PlanConfig::default();
        pinned.signatures.insert(
            "sum".into(),
            (vec![PlanDomain::Nat, PlanDomain::Nat], PlanDomain::Nat),
        );
        let k = |cfg: &PlanConfig| keys(TWO, cfg)[1].1.clone();
        let baseline = k(&base);
        assert_ne!(baseline, k(&small_fuel));
        assert_ne!(baseline, k(&pinned));
        // A signature pinned to a *different* define leaves sum's key alone.
        let mut other_pinned = PlanConfig::default();
        other_pinned
            .signatures
            .insert("inc".into(), (vec![PlanDomain::Nat], PlanDomain::Nat));
        assert_eq!(baseline, k(&other_pinned));
    }

    #[test]
    fn pinning_a_callee_signature_rekeys_its_callers() {
        // g stubs f under f's summary, whose guard is f's pinned
        // signature: a decision planned under one callee signature must
        // not replay under another.
        let src = "(define (f l) (if (null? l) 0 (+ 1 (f (cdr l)))))
                   (define (g l) (if (null? l) 0 (+ (f l) (g (cdr l)))))
                   (define (h x) x)";
        let base = keys(src, &PlanConfig::default());
        let mut pinned = PlanConfig::default();
        pinned
            .signatures
            .insert("f".into(), (vec![PlanDomain::List], PlanDomain::Nat));
        let after = keys(src, &pinned);
        assert_ne!(base[0].1, after[0].1, "f's own signature changed");
        assert_ne!(base[1].1, after[1].1, "g reaches f: must be re-keyed");
        assert_eq!(base[2].1, after[2].1, "h does not reach f");
    }

    #[test]
    fn keys_do_not_depend_on_define_order() {
        // Indices and component membership order both follow source
        // order; the keys must not.
        let defs = [
            "(define (ev n) (if (zero? n) #t (od (- n 1))))",
            "(define (od n) (if (zero? n) #f (ev (- n 1))))",
            "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))",
            "(define (top l) (if (null? l) (ev 4) (+ (len l) (top (cdr l)))))",
        ];
        let cfg = PlanConfig::default();
        let sorted = |order: [usize; 4]| {
            let src: Vec<&str> = order.iter().map(|&i| defs[i]).collect();
            let mut k = keys(&src.join("\n"), &cfg);
            k.sort();
            k
        };
        let forward = sorted([0, 1, 2, 3]);
        for order in [[3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]] {
            assert_eq!(sorted(order), forward, "order {order:?}");
        }
    }

    #[test]
    fn variable_slot_changes_rekey() {
        // Regression for the write_u32 tag collision: these two bodies
        // differ only in which parameter guards the recursion (Var slot 0
        // vs slot 2), and once digested to the SAME key — replaying the
        // old decision after such an edit would skip re-verification.
        let cfg = PlanConfig::default();
        let a = keys("(define (h a b c) (if (zero? a) 0 (h (- a 1) b c)))", &cfg);
        let b = keys("(define (h a b c) (if (zero? c) 0 (h (- a 1) b c)))", &cfg);
        assert_ne!(a[0].1, b[0].1, "slot-0 vs slot-2 guard must re-key");
    }

    #[test]
    fn adding_a_non_lambda_define_leaves_other_keys_alone() {
        // A key commits to what its define reaches, not to the rest of
        // the program: an unrelated initializer, before or after the
        // others, re-keys nothing else.
        let cfg = PlanConfig::default();
        let before = keys(TWO, &cfg);
        for src in [
            format!("(define unrelated 5)\n{TWO}"),
            format!("{TWO}\n(define unrelated 5)"),
        ] {
            let after = keys(&src, &cfg);
            for entry in &before {
                assert!(after.contains(entry), "{} re-keyed in {src}", entry.0);
            }
        }
    }

    #[test]
    fn key_layout_is_pinned() {
        // Existing stores stay valid only while these exact bytes do: a
        // change here re-keys every persisted entry, so it must be a
        // deliberate layout change, never a side effect of a refactor.
        let p = compile_program(
            "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))
             (define (adder n) (lambda (x) (+ x n)))
             (define (adder n) (lambda (x) (- x (len n))))",
        )
        .unwrap();
        let index = ProgramIndex::build(&p);
        let d = digests(&p, &index, &PlanConfig::default());
        let got = [d.key_at(&p, 0, 0), d.key_at(&p, 1, 0), d.key_at(&p, 1, 1)];
        assert_eq!(
            got,
            [
                "881c4b8c68a23513e26f5e43aba350ab",
                "c15a3fdf4351abb788b99cadcc6171aa",
                "8d46aa670d0d31ceabc5567f71aaa60a",
            ]
        );
    }

    #[test]
    fn signature_key_layout_is_pinned() {
        // `key_layout_is_pinned` plans without signatures, so it does not
        // pin the domain tags: this key folds a signature that names all
        // five domains.
        use PlanDomain::{Any, Int, List, Nat, Pos};
        let p = compile_program("(define (f a b c l) (if (zero? a) 0 (f (- a 1) b c l)))").unwrap();
        let mut cfg = PlanConfig::default();
        cfg.signatures
            .insert("f".into(), (vec![Nat, Pos, Int, List], Any));
        let index = ProgramIndex::build(&p);
        let d = digests(&p, &index, &cfg);
        assert_eq!(d.key_at(&p, 0, 0), "1464143c00e9b5cb74088b391ff56787");
    }

    #[test]
    fn renaming_a_define_rekeys_it() {
        let cfg = PlanConfig::default();
        let a = keys("(define (f x) x)", &cfg);
        let b = keys("(define (g x) x)", &cfg);
        assert_ne!(a[0].1, b[0].1);
    }
}
