//! Rendering the core AST back to S-expression syntax.
//!
//! Useful for debugging compiled programs and for error messages; the
//! output is *kernel* syntax (post-desugaring), with lexical addresses
//! rendered as generated names `v<depth>_<slot>` scoped by binder.

use crate::ast::{Expr, LambdaDef, Program, TopForm, VarRef};
use sct_sexpr::Datum;

/// Names in scope, innermost frame last.
struct Scope {
    frames: Vec<Vec<String>>,
}

impl Scope {
    fn name_of(&self, v: VarRef) -> String {
        let idx = self.frames.len().checked_sub(1 + v.depth as usize);
        match idx
            .and_then(|i| self.frames.get(i))
            .and_then(|f| f.get(v.slot as usize))
        {
            Some(n) => n.clone(),
            None => format!("?v{}_{}", v.depth, v.slot),
        }
    }

    fn push(&mut self, names: Vec<String>) {
        self.frames.push(names);
    }

    fn pop(&mut self) {
        self.frames.pop();
    }
}

fn sym(s: impl Into<std::rc::Rc<str>>) -> Datum {
    Datum::Sym(s.into())
}

/// Renders a whole program as a sequence of top-level forms.
pub fn program_to_datums(p: &Program) -> Vec<Datum> {
    let mut scope = Scope { frames: Vec::new() };
    let mut counter = 0u32;
    p.top_level
        .iter()
        .map(|form| match form {
            TopForm::Define { index, expr } => Datum::List(vec![
                sym("define"),
                sym(p.global_names[*index as usize].clone()),
                expr_to_datum(expr, p, &mut scope, &mut counter),
            ]),
            TopForm::Expr(expr) => expr_to_datum(expr, p, &mut scope, &mut counter),
        })
        .collect()
}

/// Renders one expression (resolved under the program's global names).
pub fn expr_to_datum_top(e: &Expr, p: &Program) -> Datum {
    let mut scope = Scope { frames: Vec::new() };
    let mut counter = 0;
    expr_to_datum(e, p, &mut scope, &mut counter)
}

fn fresh_names(def: &LambdaDef, counter: &mut u32) -> Vec<String> {
    *counter += 1;
    let c = *counter;
    (0..def.frame_size()).map(|i| format!("x{c}_{i}")).collect()
}

fn expr_to_datum(e: &Expr, p: &Program, scope: &mut Scope, counter: &mut u32) -> Datum {
    match e {
        Expr::Quote(d) => match d.as_ref() {
            Datum::Int(_) | Datum::BigInt(_) | Datum::Bool(_) | Datum::Char(_) | Datum::Str(_) => {
                d.as_ref().clone()
            }
            other => Datum::List(vec![sym("quote"), other.clone()]),
        },
        Expr::Var(v) => sym(scope.name_of(*v)),
        Expr::Global(i) => sym(p.global_names[*i as usize].clone()),
        Expr::PrimRef(prim) => sym(prim.name()),
        Expr::Lambda(def) => {
            let names = fresh_names(def, counter);
            let params: Vec<Datum> = names.iter().map(|n| sym(n.clone())).collect();
            let param_datum = if def.variadic {
                let (fixed, rest) = params.split_at(def.params as usize);
                if fixed.is_empty() {
                    rest[0].clone()
                } else {
                    Datum::Improper(fixed.to_vec(), Box::new(rest[0].clone()))
                }
            } else {
                Datum::List(params)
            };
            scope.push(names);
            let body = expr_to_datum(&def.body, p, scope, counter);
            scope.pop();
            Datum::List(vec![sym("lambda"), param_datum, body])
        }
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => Datum::List(vec![
            sym("if"),
            expr_to_datum(cond, p, scope, counter),
            expr_to_datum(then_branch, p, scope, counter),
            expr_to_datum(else_branch, p, scope, counter),
        ]),
        Expr::App { func, args } => {
            let mut items = vec![expr_to_datum(func, p, scope, counter)];
            items.extend(args.iter().map(|a| expr_to_datum(a, p, scope, counter)));
            Datum::List(items)
        }
        Expr::Seq(exprs) => {
            let mut items = vec![sym("begin")];
            items.extend(exprs.iter().map(|x| expr_to_datum(x, p, scope, counter)));
            Datum::List(items)
        }
        Expr::SetLocal { var, value } => Datum::List(vec![
            sym("set!"),
            sym(scope.name_of(*var)),
            expr_to_datum(value, p, scope, counter),
        ]),
        Expr::SetGlobal { index, value } => Datum::List(vec![
            sym("set!"),
            sym(p.global_names[*index as usize].clone()),
            expr_to_datum(value, p, scope, counter),
        ]),
        Expr::Let { inits, body } => {
            let rendered: Vec<Datum> = inits
                .iter()
                .map(|i| expr_to_datum(i, p, scope, counter))
                .collect();
            *counter += 1;
            let c = *counter;
            let names: Vec<String> = (0..inits.len()).map(|i| format!("x{c}_{i}")).collect();
            let bindings: Vec<Datum> = names
                .iter()
                .zip(rendered)
                .map(|(n, r)| Datum::List(vec![sym(n.clone()), r]))
                .collect();
            scope.push(names);
            let body = expr_to_datum(body, p, scope, counter);
            scope.pop();
            Datum::List(vec![sym("let"), Datum::List(bindings), body])
        }
        Expr::LetRec { inits, body } => {
            *counter += 1;
            let c = *counter;
            let names: Vec<String> = (0..inits.len()).map(|i| format!("x{c}_{i}")).collect();
            scope.push(names.clone());
            let bindings: Vec<Datum> = names
                .iter()
                .zip(inits.iter())
                .map(|(n, i)| {
                    Datum::List(vec![sym(n.clone()), expr_to_datum(i, p, scope, counter)])
                })
                .collect();
            let body = expr_to_datum(body, p, scope, counter);
            scope.pop();
            Datum::List(vec![sym("letrec"), Datum::List(bindings), body])
        }
        Expr::TermC { body, label } => Datum::List(vec![
            sym("terminating/c"),
            expr_to_datum(body, p, scope, counter),
            Datum::Str(label.to_string()),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_program;

    fn render(src: &str) -> String {
        let p = compile_program(src).unwrap();
        program_to_datums(&p)
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn renders_define_and_globals() {
        let out = render("(define (f x) (+ x 1)) (f 2)");
        assert!(
            out.contains("(define f (lambda (x1_0) (+ x1_0 1)))"),
            "got: {out}"
        );
        assert!(out.contains("(f 2)"), "got: {out}");
    }

    #[test]
    fn renders_shadowing_distinctly() {
        // Inner and outer x get different generated names.
        let out = render("(lambda (x) (lambda (x) x))");
        let inner_name = out.rfind("x2_0");
        assert!(inner_name.is_some(), "inner var should be x2_0: {out}");
        assert!(out.contains("x1_0"), "outer binder should be x1_0: {out}");
    }

    #[test]
    fn renders_variadic_params() {
        let out = render("(lambda args args)");
        assert!(out.contains("(lambda x1_0 x1_0)"), "got: {out}");
        let out = render("(lambda (a . r) r)");
        assert!(out.contains("(lambda (x1_0 . x1_1) x1_1)"), "got: {out}");
    }

    #[test]
    fn roundtrip_recompiles_to_same_behavior() {
        // Render, recompile, rerun: the value must be preserved.
        for src in [
            "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 8)",
            "(let loop ([i 5] [acc 1]) (if (zero? i) acc (loop (- i 1) (* acc 2))))",
            "(define (f . xs) (length xs)) (f 1 2 3)",
            "(letrec ([even? (lambda (n) (if (zero? n) #t (odd? (- n 1))))]
                      [odd? (lambda (n) (if (zero? n) #f (even? (- n 1))))])
               (even? 9))",
        ] {
            let p1 = compile_program(src).unwrap();
            let rendered = program_to_datums(&p1)
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(" ");
            let v1 = sct_sexpr::parse_all(&rendered).expect("rendered output parses");
            assert!(!v1.is_empty());
            // Behavior check happens in the interp integration tests; here
            // we at least require the rendering to be valid, parseable
            // kernel syntax.
        }
    }

    #[test]
    fn quotes_and_literals() {
        let out = render("'(a 1 \"s\") #\\x 42");
        assert!(out.contains("(quote (a 1 \"s\"))"), "got: {out}");
        assert!(out.contains("#\\x"), "got: {out}");
        assert!(out.contains("42"), "got: {out}");
    }
}
