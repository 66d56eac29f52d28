//! Lexical resolution: kernel syntax → core AST.
//!
//! Performs scope analysis (locals become frame/slot addresses, top-level
//! names become global indices, unshadowed primitive names become direct
//! [`Prim`] references), rejects unbound variables and duplicate parameters,
//! and computes each lambda's free-variable list for closure fingerprinting.
//!
//! Scopes hold the reader's interned symbols, so opening a frame copies
//! no name, and operand lists are collected on a scratch stack and moved
//! into their `Rc<[Expr]>` at their exact length.

use crate::ast::{Expr, GlobalIndex, LambdaDef, Program, TopForm, VarRef};
use crate::desugar::TERM_C_HEAD;
use crate::prims::Prim;
use crate::LangError;
use sct_sexpr::{Datum, FxBuildHasher};
use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

/// Resolves a desugared top-level program, borrowing its forms (the
/// same resolver that [`compile_program`](crate::compile_program) runs
/// over the forms it owns).
///
/// # Errors
///
/// Returns [`LangError`] on unbound variables, malformed kernel forms,
/// duplicate parameters, or `set!` of a primitive.
pub fn resolve_program(forms: &[Datum]) -> Result<Program, LangError> {
    resolve_forms(forms.iter().collect())
}

/// Resolves a desugared top-level program. Given owned forms, it frees
/// each one as soon as it is resolved, so the desugared tree and the core
/// AST are not both held in full.
pub(crate) fn resolve_forms<D: Borrow<Datum>>(forms: Vec<D>) -> Result<Program, LangError> {
    let mut resolver = Resolver::new();
    // First pass: collect all global names so mutual recursion resolves.
    for form in &forms {
        let form = form.borrow();
        if let Some([_, Datum::Sym(name), _]) = form.as_list().filter(|_| form.head_is("define")) {
            resolver.intern_global(name);
        }
    }
    let mut top_level = Vec::with_capacity(forms.len());
    for form in forms {
        let form = form.borrow();
        match form.as_list() {
            Some([_, Datum::Sym(name), init]) if form.head_is("define") => {
                let index = resolver.intern_global(name);
                let expr = resolver.expr(init, Some(name))?;
                top_level.push(TopForm::Define { index, expr });
            }
            _ => {
                let expr = resolver.expr(form, None)?;
                top_level.push(TopForm::Expr(expr));
            }
        }
    }
    Ok(Program {
        global_names: resolver.globals,
        top_level,
        lambda_count: resolver.lambda_counter,
    })
}

struct Resolver {
    globals: Vec<String>,
    /// `globals` inverted, so every name lookup is O(1): a linear scan per
    /// lookup made resolving an n-define program quadratic.
    global_index: HashMap<Rc<str>, GlobalIndex, FxBuildHasher>,
    /// The slot names of every open frame, innermost frame last.
    names: Vec<Rc<str>>,
    /// Where each open frame's slots start in `names`.
    frames: Vec<usize>,
    /// Operands resolved so far of the forms being resolved, innermost
    /// form last; each form moves its own out when it is complete.
    operands: Vec<Expr>,
    lambda_counter: u32,
}

fn err(msg: impl Into<String>) -> LangError {
    LangError::new(msg)
}

impl Resolver {
    fn new() -> Resolver {
        Resolver {
            globals: Vec::new(),
            global_index: HashMap::default(),
            names: Vec::new(),
            frames: Vec::new(),
            operands: Vec::new(),
            lambda_counter: 0,
        }
    }

    fn intern_global(&mut self, name: &Rc<str>) -> GlobalIndex {
        if let Some(&i) = self.global_index.get(name) {
            return i;
        }
        let i = self.globals.len() as GlobalIndex;
        self.globals.push(name.to_string());
        self.global_index.insert(Rc::clone(name), i);
        i
    }

    fn lookup_local(&self, name: &str) -> Option<VarRef> {
        let mut end = self.names.len();
        for (depth, &start) in self.frames.iter().rev().enumerate() {
            if let Some(slot) = self.names[start..end].iter().position(|n| **n == *name) {
                return Some(VarRef {
                    depth: depth as u16,
                    slot: slot as u16,
                });
            }
            end = start;
        }
        None
    }

    /// Opens an empty innermost frame; slots are pushed onto `names`.
    fn open_frame(&mut self) {
        self.frames.push(self.names.len());
    }

    fn close_frame(&mut self) {
        let start = self.frames.pop().expect("an open frame");
        self.names.truncate(start);
    }

    fn variable(&mut self, name: &str) -> Result<Expr, LangError> {
        if let Some(v) = self.lookup_local(name) {
            return Ok(Expr::Var(v));
        }
        if let Some(&i) = self.global_index.get(name) {
            return Ok(Expr::Global(i));
        }
        if let Some(p) = Prim::from_name(name) {
            return Ok(Expr::PrimRef(p));
        }
        Err(err(format!("unbound variable {name}")))
    }

    /// Resolves `forms` in order into one exact-length slice; `hint`
    /// names each form's λ, if it is one.
    fn operands<'d>(
        &mut self,
        forms: impl Iterator<Item = (&'d Datum, Option<&'d str>)>,
    ) -> Result<Rc<[Expr]>, LangError> {
        let base = self.operands.len();
        for (form, hint) in forms {
            let e = self.expr(form, hint)?;
            self.operands.push(e);
        }
        Ok(self.operands.drain(base..).collect())
    }

    fn expr(&mut self, d: &Datum, name_hint: Option<&str>) -> Result<Expr, LangError> {
        match d {
            Datum::Int(_) | Datum::BigInt(_) | Datum::Bool(_) | Datum::Char(_) | Datum::Str(_) => {
                Ok(Expr::Quote(Rc::new(d.clone())))
            }
            Datum::Sym(name) => self.variable(name),
            Datum::Improper(..) => Err(err(format!("illegal dotted expression {d}"))),
            Datum::List(items) => self.list_form(items, d, name_hint),
        }
    }

    fn list_form(
        &mut self,
        items: &[Datum],
        whole: &Datum,
        name_hint: Option<&str>,
    ) -> Result<Expr, LangError> {
        if items.is_empty() {
            return Err(err("empty application ()"));
        }
        // A special-form head only applies when the name is not shadowed.
        if let Some(head) = items[0].as_sym() {
            let shadowed =
                self.lookup_local(head).is_some() || self.global_index.contains_key(head);
            if !shadowed {
                match head {
                    "quote" => {
                        let [_, datum] = items else {
                            return Err(err(format!("malformed quote: {whole}")));
                        };
                        return Ok(Expr::Quote(Rc::new(datum.clone())));
                    }
                    "lambda" => {
                        let [_, params, body] = items else {
                            return Err(err(format!("malformed kernel lambda: {whole}")));
                        };
                        return self.lambda(params, body, name_hint);
                    }
                    "if" => {
                        let [_, c, t, e] = items else {
                            return Err(err(format!("malformed kernel if: {whole}")));
                        };
                        return Ok(Expr::If {
                            cond: Rc::new(self.expr(c, None)?),
                            then_branch: Rc::new(self.expr(t, None)?),
                            else_branch: Rc::new(self.expr(e, None)?),
                        });
                    }
                    "begin" => {
                        if items.len() == 1 {
                            return Err(err("empty begin"));
                        }
                        let body = self.operands(items[1..].iter().map(|e| (e, None)))?;
                        return Ok(Expr::Seq(body));
                    }
                    "set!" => {
                        let [_, Datum::Sym(name), value] = items else {
                            return Err(err(format!("malformed set!: {whole}")));
                        };
                        let value = Rc::new(self.expr(value, None)?);
                        if let Some(var) = self.lookup_local(name) {
                            return Ok(Expr::SetLocal { var, value });
                        }
                        if let Some(&index) = self.global_index.get(name) {
                            return Ok(Expr::SetGlobal { index, value });
                        }
                        if Prim::from_name(name).is_some() {
                            return Err(err(format!("cannot set! primitive {name}")));
                        }
                        return Err(err(format!("set! of unbound variable {name}")));
                    }
                    "let" => {
                        let [_, Datum::List(bindings), body] = items else {
                            return Err(err(format!("malformed kernel let: {whole}")));
                        };
                        return self.let_form(bindings, body, false);
                    }
                    "letrec" => {
                        let [_, Datum::List(bindings), body] = items else {
                            return Err(err(format!("malformed kernel letrec: {whole}")));
                        };
                        return self.let_form(bindings, body, true);
                    }
                    h if h == TERM_C_HEAD => {
                        let [_, Datum::Str(label), body] = items else {
                            return Err(err(format!("malformed terminating/c: {whole}")));
                        };
                        return Ok(Expr::TermC {
                            body: Rc::new(self.expr(body, name_hint)?),
                            label: Rc::from(label.as_str()),
                        });
                    }
                    _ => {}
                }
            }
        }
        // Application.
        let func = Rc::new(self.expr(&items[0], None)?);
        let args = self.operands(items[1..].iter().map(|e| (e, None)))?;
        Ok(Expr::App { func, args })
    }

    fn let_form(
        &mut self,
        bindings: &[Datum],
        body: &Datum,
        recursive: bool,
    ) -> Result<Expr, LangError> {
        let mut parts: Vec<(&Rc<str>, &Datum)> = Vec::with_capacity(bindings.len());
        for b in bindings {
            let Some([Datum::Sym(name), init]) = b.as_list() else {
                return Err(err(format!("malformed binding {b}")));
            };
            if parts.iter().any(|(n, _)| *n == name) {
                return Err(err(format!("duplicate binding {name}")));
            }
            parts.push((name, init));
        }
        let inits = parts.iter().map(|&(name, init)| (init, Some(&**name)));
        let names = parts.iter().map(|&(name, _)| Rc::clone(name));
        if recursive {
            self.open_frame();
            self.names.extend(names);
            let inits = self.operands(inits)?;
            let body = self.expr(body, None)?;
            self.close_frame();
            Ok(Expr::LetRec {
                inits,
                body: Rc::new(body),
            })
        } else {
            let inits = self.operands(inits)?;
            self.open_frame();
            self.names.extend(names);
            let body = self.expr(body, None)?;
            self.close_frame();
            Ok(Expr::Let {
                inits,
                body: Rc::new(body),
            })
        }
    }

    fn lambda(
        &mut self,
        params: &Datum,
        body: &Datum,
        name_hint: Option<&str>,
    ) -> Result<Expr, LangError> {
        self.open_frame();
        let variadic = self.push_params(params)?;
        let start = *self.frames.last().expect("the parameter frame");
        let required = self.names.len() - start - usize::from(variadic);
        let body = self.expr(body, None)?;
        self.close_frame();

        let mut free = BTreeSet::new();
        collect_free(&body, 1, &mut free);

        let id = self.lambda_counter;
        self.lambda_counter += 1;
        Ok(Expr::Lambda(Rc::new(LambdaDef {
            id,
            name: name_hint.map(|s| s.to_string()),
            params: required as u16,
            variadic,
            body,
            free: free.into_iter().collect(),
        })))
    }

    /// Pushes a lambda parameter spec's slot names — `(a b)`, `(a b . rest)`
    /// or `args`, rest last — into the innermost frame. Returns whether the
    /// lambda is variadic.
    fn push_params(&mut self, params: &Datum) -> Result<bool, LangError> {
        match params {
            Datum::Sym(_) => {
                self.push_param(params)?;
                Ok(true)
            }
            Datum::List(items) => {
                for p in items {
                    self.push_param(p)?;
                }
                Ok(false)
            }
            Datum::Improper(items, tail) => {
                for p in items {
                    self.push_param(p)?;
                }
                self.push_param(tail)?;
                Ok(true)
            }
            _ => Err(err(format!("malformed parameter list: {params}"))),
        }
    }

    fn push_param(&mut self, d: &Datum) -> Result<(), LangError> {
        let Datum::Sym(s) = d else {
            return Err(err(format!("parameter is not a symbol: {d}")));
        };
        let start = *self.frames.last().expect("the parameter frame");
        if self.names[start..].contains(s) {
            return Err(err(format!("duplicate parameter {s}")));
        }
        self.names.push(Rc::clone(s));
        Ok(())
    }
}

/// Collects variable references escaping a lambda.
///
/// `boundary` counts the frames introduced between the lambda's defining
/// environment and the current expression (the lambda's own parameter frame
/// counts as 1 at body start). A reference at `depth ≥ boundary` escapes,
/// and `depth - boundary` addresses it from the defining environment.
fn collect_free(expr: &Expr, boundary: u16, out: &mut BTreeSet<VarRef>) {
    match expr {
        Expr::Var(v) => {
            if v.depth >= boundary {
                out.insert(VarRef {
                    depth: v.depth - boundary,
                    slot: v.slot,
                });
            }
        }
        Expr::SetLocal { var, value } => {
            if var.depth >= boundary {
                out.insert(VarRef {
                    depth: var.depth - boundary,
                    slot: var.slot,
                });
            }
            collect_free(value, boundary, out);
        }
        Expr::Lambda(def) => {
            // The nested lambda's free refs are relative to *this* point.
            for fv in &def.free {
                if fv.depth >= boundary {
                    out.insert(VarRef {
                        depth: fv.depth - boundary,
                        slot: fv.slot,
                    });
                }
            }
        }
        Expr::Let { inits, body } => {
            for i in inits.iter() {
                collect_free(i, boundary, out);
            }
            collect_free(body, boundary + 1, out);
        }
        Expr::LetRec { inits, body } => {
            for i in inits.iter() {
                collect_free(i, boundary + 1, out);
            }
            collect_free(body, boundary + 1, out);
        }
        _ => expr.for_each_child(|child| collect_free(child, boundary, out)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_program;

    fn compile(src: &str) -> Program {
        compile_program(src).unwrap_or_else(|e| panic!("compile failed for {src}: {e}"))
    }

    fn first_expr(p: &Program) -> &Expr {
        match &p.top_level[0] {
            TopForm::Expr(e) => e,
            TopForm::Define { expr, .. } => expr,
        }
    }

    #[test]
    fn literals_and_prims() {
        let p = compile("(+ 1 2)");
        let Expr::App { func, args } = first_expr(&p) else {
            panic!()
        };
        assert!(matches!(**func, Expr::PrimRef(Prim::Add)));
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn lexical_addressing() {
        let p = compile("(lambda (x) (lambda (y) (x y)))");
        let Expr::Lambda(outer) = first_expr(&p) else {
            panic!()
        };
        let Expr::Lambda(inner) = &outer.body else {
            panic!()
        };
        let Expr::App { func, args } = &inner.body else {
            panic!()
        };
        // x is one frame up, y is local.
        assert!(matches!(**func, Expr::Var(VarRef { depth: 1, slot: 0 })));
        assert!(matches!(args[0], Expr::Var(VarRef { depth: 0, slot: 0 })));
        // Inner lambda's free list: x at depth 0 of its defining env.
        assert_eq!(inner.free, vec![VarRef { depth: 0, slot: 0 }]);
        // Outer lambda captures nothing.
        assert!(outer.free.is_empty());
    }

    #[test]
    fn free_vars_through_let() {
        let p = compile("(lambda (x) (let ((a 1)) (lambda (y) (+ a x))))");
        let Expr::Lambda(outer) = first_expr(&p) else {
            panic!()
        };
        let Expr::Let { body, .. } = &outer.body else {
            panic!()
        };
        let Expr::Lambda(inner) = &**body else {
            panic!()
        };
        // Inner sees a at depth 1 (let frame) → free depth 0; x at depth 2 → free depth 1.
        assert_eq!(
            inner.free,
            vec![VarRef { depth: 0, slot: 0 }, VarRef { depth: 1, slot: 0 }]
        );
        assert!(outer.free.is_empty(), "x is outer's own parameter");
    }

    #[test]
    fn nested_lambda_free_propagates() {
        // z is free in the innermost lambda and must surface in the middle
        // lambda's free list too.
        let p = compile("(lambda (z) (lambda (a) (lambda (b) z)))");
        let Expr::Lambda(outer) = first_expr(&p) else {
            panic!()
        };
        let Expr::Lambda(middle) = &outer.body else {
            panic!()
        };
        assert_eq!(middle.free, vec![VarRef { depth: 0, slot: 0 }]);
        assert!(outer.free.is_empty());
    }

    #[test]
    fn globals_and_mutual_recursion() {
        let p = compile(
            "(define (even? n) (if (zero? n) #t (odd? (- n 1))))
             (define (odd? n) (if (zero? n) #f (even? (- n 1))))
             (even? 10)",
        );
        assert_eq!(p.global_names, vec!["even?", "odd?"]);
        // The reference to odd? inside even? is Global(1) even though odd?
        // is defined later.
        let TopForm::Define {
            expr: Expr::Lambda(def),
            ..
        } = &p.top_level[0]
        else {
            panic!()
        };
        assert_eq!(def.name.as_deref(), Some("even?"));
        assert!(def.free.is_empty(), "globals are not captured");
    }

    #[test]
    fn user_definitions_shadow_prims() {
        let p = compile("(define (car x) x) (car 5)");
        let TopForm::Expr(Expr::App { func, .. }) = &p.top_level[1] else {
            panic!()
        };
        assert!(
            matches!(**func, Expr::Global(0)),
            "user car shadows the primitive"
        );
    }

    #[test]
    fn locals_shadow_globals_and_prims() {
        let p = compile("(define x 1) (lambda (x) x)");
        let TopForm::Expr(Expr::Lambda(def)) = &p.top_level[1] else {
            panic!()
        };
        assert!(matches!(def.body, Expr::Var(VarRef { depth: 0, slot: 0 })));
    }

    #[test]
    fn variadic_params() {
        let p = compile("(lambda args args)");
        let Expr::Lambda(def) = first_expr(&p) else {
            panic!()
        };
        assert_eq!(def.params, 0);
        assert!(def.variadic);
        assert_eq!(def.frame_size(), 1);

        let p = compile("(lambda (a b . r) r)");
        let Expr::Lambda(def) = first_expr(&p) else {
            panic!()
        };
        assert_eq!(def.params, 2);
        assert!(def.variadic);
        assert_eq!(def.frame_size(), 3);
    }

    #[test]
    fn letrec_scoping() {
        let p = compile("(letrec ((f (lambda (n) (f n)))) f)");
        let Expr::LetRec { inits, body } = first_expr(&p) else {
            panic!()
        };
        let Expr::Lambda(def) = &inits[0] else {
            panic!()
        };
        assert_eq!(def.name.as_deref(), Some("f"));
        // f refers to itself through the letrec frame: free at depth 0.
        assert_eq!(def.free, vec![VarRef { depth: 0, slot: 0 }]);
        assert!(matches!(**body, Expr::Var(VarRef { depth: 0, slot: 0 })));
    }

    #[test]
    fn term_c_resolves() {
        let p = compile("(terminating/c (lambda (x) x))");
        let Expr::TermC { label, body } = first_expr(&p) else {
            panic!()
        };
        assert!(label.contains("terminating/c#0"), "got {label}");
        assert!(matches!(**body, Expr::Lambda(_)));
    }

    #[test]
    fn resolution_errors() {
        assert!(compile_program("nope").is_err());
        assert!(compile_program("(set! nope 1)").is_err());
        assert!(compile_program("(set! car 1)").is_err());
        assert!(compile_program("(lambda (x x) x)").is_err());
        assert!(compile_program("(let ((x 1) (x 2)) x)").is_err());
    }

    #[test]
    fn set_local_and_global() {
        let p = compile("(define g 0) (lambda (x) (set! x 1)) (set! g 2)");
        let TopForm::Expr(Expr::Lambda(def)) = &p.top_level[1] else {
            panic!()
        };
        assert!(matches!(def.body, Expr::SetLocal { .. }));
        let TopForm::Expr(Expr::SetGlobal { index: 0, .. }) = &p.top_level[2] else {
            panic!()
        };
    }

    #[test]
    fn quoted_data_preserved() {
        let p = compile("'(1 2 (3 . 4))");
        let Expr::Quote(d) = first_expr(&p) else {
            panic!()
        };
        assert_eq!(d.to_string(), "(1 2 (3 . 4))");
    }

    #[test]
    fn ack_compiles_end_to_end() {
        let p = compile(
            "(define (ack m n)
               (cond [(= 0 m) (+ 1 n)]
                     [(= 0 n) (ack (- m 1) 1)]
                     [else (ack (- m 1) (ack m (- n 1)))]))
             (ack 2 0)",
        );
        assert_eq!(p.lambda_count, 1);
        assert_eq!(p.global_names, vec!["ack"]);
    }
}
