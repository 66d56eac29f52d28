//! Expansion of derived surface forms into kernel forms.
//!
//! The kernel the resolver understands is: `quote`, `lambda`, `if`,
//! `begin`, `set!`, `let`, `letrec`, the internal `(" term/c" label e)`
//! contract form, top-level `define`, and application. Everything else the
//! corpus uses — `cond` (with `=>`), `case`, `and`, `or`, `when`,
//! `unless`, `let*`, named `let`, internal defines, quasiquotation —
//! expands here, Datum to Datum, so expansions stay printable and testable.
//!
//! The desugarer consumes its input: atoms and list vectors move into the
//! output and are rewritten in place where the shape allows, so the parse
//! tree is freed as it is rewritten rather than copied node by node.
//! [`desugar_program`] is the one implementation; [`desugar_top_level`]
//! and [`desugar_expr`] clone their borrowed input into it.
//!
//! The special-form names are reserved words: the corpus subset does not
//! permit shadowing them with local bindings (as in the paper's Racket
//! programs, where they are module-level bindings).

use crate::LangError;
use sct_sexpr::Datum;
use std::rc::Rc;

/// Internal head symbol for the desugared `terminating/c` form. The leading
/// space makes it unwritable in source text.
pub const TERM_C_HEAD: &str = " term/c";

/// Desugars a whole top-level program, consuming it.
///
/// # Errors
///
/// Returns [`LangError`] on malformed special forms.
pub fn desugar_program(forms: Vec<Datum>) -> Result<Vec<Datum>, LangError> {
    let mut d = Desugarer::new();
    forms.into_iter().map(|f| d.top_form(f)).collect()
}

/// Desugars a whole top-level program: [`desugar_program`] on a copy.
///
/// # Errors
///
/// Returns [`LangError`] on malformed special forms.
pub fn desugar_top_level(forms: &[Datum]) -> Result<Vec<Datum>, LangError> {
    desugar_program(forms.to_vec())
}

/// Desugars a single expression (used by tests and the REPL-style API).
///
/// # Errors
///
/// Returns [`LangError`] on malformed special forms.
pub fn desugar_expr(form: &Datum) -> Result<Datum, LangError> {
    Desugarer::new().expr(form.clone())
}

struct Desugarer {
    gensym_counter: u32,
    term_c_counter: u32,
    /// The symbols the expansions emit, each allocated once.
    names: Vec<Rc<str>>,
}

fn list(items: Vec<Datum>) -> Datum {
    Datum::List(items)
}

fn err(msg: impl Into<String>) -> LangError {
    LangError::new(msg)
}

/// The error for a form whose shape does not match its keyword.
fn malformed(what: &str, items: Vec<Datum>) -> LangError {
    err(format!("malformed {what}: {}", Datum::List(items)))
}

fn is_sym(d: &Datum, name: &str) -> bool {
    d.as_sym() == Some(name)
}

/// Moves a datum out of its slot, leaving a placeholder the caller
/// overwrites.
fn take(slot: &mut Datum) -> Datum {
    std::mem::replace(slot, Datum::Bool(false))
}

/// Moves the first `N` elements (a form's keyword and fixed operands) out
/// of `items`, leaving the remaining operands in the same buffer.
fn split_front<const N: usize>(items: &mut Vec<Datum>) -> [Datum; N] {
    let mut front = items.drain(..N);
    std::array::from_fn(|_| front.next().expect("caller checked the length"))
}

impl Desugarer {
    fn new() -> Desugarer {
        Desugarer {
            gensym_counter: 0,
            term_c_counter: 0,
            names: Vec::new(),
        }
    }

    /// The symbol `name`, for an expansion to emit.
    fn sym(&mut self, name: &str) -> Datum {
        if let Some(s) = self.names.iter().find(|s| &***s == name) {
            return Datum::Sym(Rc::clone(s));
        }
        let s: Rc<str> = Rc::from(name);
        self.names.push(Rc::clone(&s));
        Datum::Sym(s)
    }

    /// `(void)`.
    fn void(&mut self) -> Datum {
        list(vec![self.sym("void")])
    }

    /// `(quote d)`.
    fn quote(&mut self, d: Datum) -> Datum {
        list(vec![self.sym("quote"), d])
    }

    fn gensym(&mut self, hint: &str) -> Datum {
        let n = self.gensym_counter;
        self.gensym_counter += 1;
        // The leading space cannot appear in a parsed symbol, so generated
        // temporaries can never capture user variables.
        Datum::sym(format!(" {hint}{n}"))
    }

    fn top_form(&mut self, form: Datum) -> Result<Datum, LangError> {
        if !form.head_is("define") {
            return self.expr(form);
        }
        let Datum::List(mut items) = form else {
            unreachable!("head_is matched a list")
        };
        match items.as_slice() {
            [_, Datum::Sym(_), _] => {
                let init = take(&mut items[2]);
                items[2] = self.expr(init)?;
                Ok(list(items))
            }
            [_, Datum::List(_) | Datum::Improper(..), _, ..] => {
                let [define, header] = split_front(&mut items);
                let (name, lambda) = self.define_function(header, items)?;
                Ok(list(vec![define, Datum::Sym(name), lambda]))
            }
            _ => Err(malformed("define", items)),
        }
    }

    /// Expands `(define (f a b . r) body...)` headers, including curried
    /// headers `(define ((f a) b) ...)` which Racket allows (unused by the
    /// corpus but cheap to support by recursion).
    fn define_function(
        &mut self,
        header: Datum,
        body: Vec<Datum>,
    ) -> Result<(Rc<str>, Datum), LangError> {
        let well_formed = match &header {
            Datum::List(items) | Datum::Improper(items, _) => matches!(
                items.first(),
                Some(Datum::Sym(_) | Datum::List(_) | Datum::Improper(..))
            ),
            _ => false,
        };
        if !well_formed {
            return Err(err(format!("malformed define header: {header}")));
        }
        // The header minus its head is the lambda's parameter datum.
        let (head, params) = match header {
            Datum::List(mut items) => {
                let head = items.remove(0);
                (head, list(items))
            }
            Datum::Improper(mut items, tail) => {
                let head = items.remove(0);
                let params = if items.is_empty() {
                    *tail
                } else {
                    Datum::Improper(items, tail)
                };
                (head, params)
            }
            _ => unreachable!("checked above"),
        };
        let lambda = self.lambda_from(params, body)?;
        match head {
            Datum::Sym(name) => Ok((name, lambda)),
            nested => self.define_function(nested, vec![lambda]),
        }
    }

    fn lambda_from(&mut self, params: Datum, body: Vec<Datum>) -> Result<Datum, LangError> {
        let body_expr = self.body(body)?;
        Ok(list(vec![self.sym("lambda"), params, body_expr]))
    }

    /// A body is zero or more internal defines followed by expressions;
    /// defines become a `letrec` (letrec* order).
    fn body(&mut self, mut forms: Vec<Datum>) -> Result<Datum, LangError> {
        let defines = forms.iter().take_while(|f| f.head_is("define")).count();
        let mut bindings = Vec::with_capacity(defines);
        for form in forms.drain(..defines) {
            let Datum::List(mut binding) = self.top_form(form)? else {
                unreachable!("a define expands to a define")
            };
            // `(define name init)` → `(name init)`.
            binding.remove(0);
            bindings.push(list(binding));
        }
        if forms.is_empty() {
            return Err(err("body has no expressions"));
        }
        for form in forms.iter_mut() {
            *form = self.expr(take(form))?;
        }
        let body = if forms.len() == 1 {
            forms.pop().expect("one expression")
        } else {
            forms.insert(0, self.sym("begin"));
            list(forms)
        };
        if bindings.is_empty() {
            Ok(body)
        } else {
            Ok(list(vec![self.sym("letrec"), list(bindings), body]))
        }
    }

    fn expr(&mut self, form: Datum) -> Result<Datum, LangError> {
        let Datum::List(mut items) = form else {
            // Atoms: self-evaluating literals and variables pass through.
            return Ok(form);
        };
        let head = match items.first() {
            None => return Err(err("empty application ()")),
            Some(Datum::Sym(s)) => Some(Rc::clone(s)),
            Some(_) => None,
        };
        match head.as_deref() {
            Some("quote") => Ok(list(items)),
            Some("quasiquote") => {
                if items.len() != 2 {
                    return Err(malformed("quasiquote", items));
                }
                let inner = items.pop().expect("two elements");
                self.quasi(inner, 1)
            }
            Some(u @ ("unquote" | "unquote-splicing")) => {
                Err(err(format!("{u} outside quasiquote")))
            }
            Some("lambda" | "λ") => {
                if items.len() < 2 {
                    return Err(malformed("lambda", items));
                }
                if items.len() == 2 {
                    return Err(err(format!("lambda has no body: {}", list(items))));
                }
                let [_, params] = split_front(&mut items);
                self.lambda_from(params, items)
            }
            Some("if") => {
                if !(3..=4).contains(&items.len()) {
                    return Err(malformed("if", items));
                }
                for item in &mut items[1..] {
                    *item = self.expr(take(item))?;
                }
                if items.len() == 3 {
                    items.push(self.void());
                }
                Ok(list(items))
            }
            Some("begin") => {
                if items.len() == 1 {
                    return Ok(self.void());
                }
                items.remove(0);
                self.body(items)
            }
            Some("set!") => {
                if !matches!(items.as_slice(), [_, Datum::Sym(_), _]) {
                    return Err(malformed("set!", items));
                }
                let value = take(&mut items[2]);
                items[2] = self.expr(value)?;
                Ok(list(items))
            }
            Some("let") => self.let_form(items),
            Some("let*") => {
                if !matches!(items.as_slice(), [_, Datum::List(_), ..]) {
                    return Err(malformed("let*", items));
                }
                if items.len() == 2 {
                    return Err(err(format!("let* has no body: {}", list(items))));
                }
                let [let_star, bindings] = split_front(&mut items);
                let Datum::List(mut bindings) = bindings else {
                    unreachable!("checked above")
                };
                if bindings.is_empty() {
                    return self.body(items);
                }
                // (let* (b bs...) body...) → (let (b) (let* (bs...) body...))
                let first = bindings.remove(0);
                let mut inner = Vec::with_capacity(items.len() + 2);
                inner.push(let_star);
                inner.push(list(bindings));
                inner.extend(items);
                let expanded = list(vec![self.sym("let"), list(vec![first]), list(inner)]);
                self.expr(expanded)
            }
            Some("letrec" | "letrec*") => {
                if !matches!(items.as_slice(), [_, Datum::List(_), ..]) {
                    return Err(malformed("letrec", items));
                }
                if items.len() == 2 {
                    return Err(err(format!("letrec has no body: {}", list(items))));
                }
                let [_, bindings] = split_front(&mut items);
                let Datum::List(mut bindings) = bindings else {
                    unreachable!("checked above")
                };
                for b in bindings.iter_mut() {
                    *b = self.binding(take(b))?;
                }
                let body = self.body(items)?;
                Ok(list(vec![self.sym("letrec"), list(bindings), body]))
            }
            Some("cond") => self.cond(items),
            Some("case") => self.case(items),
            Some("and") => {
                items.remove(0);
                self.and(items)
            }
            Some("or") => {
                items.remove(0);
                self.or(items)
            }
            Some(kw @ ("when" | "unless")) => {
                if items.len() < 2 {
                    return Err(malformed(kw, items));
                }
                if items.len() == 2 {
                    return Err(err(format!("{kw} has no body: {}", list(items))));
                }
                let [_, test] = split_front(&mut items);
                let body = self.body(items)?;
                let test = self.expr(test)?;
                let void = self.void();
                let (then_branch, else_branch) = if kw == "when" {
                    (body, void)
                } else {
                    (void, body)
                };
                Ok(list(vec![self.sym("if"), test, then_branch, else_branch]))
            }
            Some("terminating/c" | "term/c") if items.len() >= 2 => {
                let label = match items.as_slice() {
                    [_, e] => {
                        let shown = e.to_string();
                        let truncated: String = shown.chars().take(40).collect();
                        let n = self.term_c_counter;
                        self.term_c_counter += 1;
                        format!("terminating/c#{n} on {truncated}")
                    }
                    [_, _, Datum::Str(_)] => match items.pop() {
                        Some(Datum::Str(label)) => label,
                        _ => unreachable!("matched above"),
                    },
                    _ => return Err(malformed("terminating/c", items)),
                };
                let e = items.pop().expect("an expression");
                Ok(list(vec![
                    self.sym(TERM_C_HEAD),
                    Datum::Str(label),
                    self.expr(e)?,
                ]))
            }
            _ => {
                // Application.
                for item in items.iter_mut() {
                    *item = self.expr(take(item))?;
                }
                Ok(list(items))
            }
        }
    }

    fn binding(&mut self, b: Datum) -> Result<Datum, LangError> {
        match b {
            Datum::List(mut items) if matches!(items.as_slice(), [Datum::Sym(_), _]) => {
                let init = take(&mut items[1]);
                items[1] = self.expr(init)?;
                Ok(list(items))
            }
            b => Err(err(format!("malformed binding: {b}"))),
        }
    }

    fn let_form(&mut self, mut items: Vec<Datum>) -> Result<Datum, LangError> {
        match items.as_slice() {
            // Named let: (let loop ([x e] ...) body...)
            [_, Datum::Sym(_), Datum::List(bindings), _, ..] => {
                let well_formed = bindings
                    .iter()
                    .all(|b| matches!(b.as_list(), Some([Datum::Sym(_), _])));
                if !well_formed {
                    return Err(err(format!(
                        "malformed named-let binding in {}",
                        list(items)
                    )));
                }
                let [_, name, bindings] = split_front(&mut items);
                let Datum::List(bindings) = bindings else {
                    unreachable!("checked above")
                };
                let mut params = Vec::with_capacity(bindings.len());
                let mut call = Vec::with_capacity(bindings.len() + 1);
                call.push(name.clone());
                for b in bindings {
                    let Datum::List(b) = b else {
                        unreachable!("checked above")
                    };
                    let [param, init] = <[Datum; 2]>::try_from(b).expect("checked above");
                    params.push(param);
                    call.push(init);
                }
                // (letrec ([name (lambda (params) body)]) (name inits...))
                let mut lambda = Vec::with_capacity(items.len() + 2);
                lambda.push(self.sym("lambda"));
                lambda.push(list(params));
                lambda.extend(items);
                let expanded = list(vec![
                    self.sym("letrec"),
                    list(vec![list(vec![name, list(lambda)])]),
                    list(call),
                ]);
                self.expr(expanded)
            }
            [_, Datum::List(_), _, ..] => {
                let [let_kw, bindings] = split_front(&mut items);
                let Datum::List(mut bindings) = bindings else {
                    unreachable!("checked above")
                };
                for b in bindings.iter_mut() {
                    *b = self.binding(take(b))?;
                }
                let body = self.body(items)?;
                Ok(list(vec![let_kw, list(bindings), body]))
            }
            _ => Err(malformed("let", items)),
        }
    }

    /// `items` is the whole `(cond clause...)` form. Every clause's shape
    /// is checked before any is expanded, so errors can print the form.
    fn cond(&mut self, items: Vec<Datum>) -> Result<Datum, LangError> {
        let clauses = &items[1..];
        for (i, clause) in clauses.iter().enumerate() {
            let problem = match clause.as_list() {
                None => Some("malformed cond clause in"),
                Some([]) => Some("empty cond clause in"),
                Some([e, ..]) if is_sym(e, "else") && i + 1 < clauses.len() => {
                    Some("cond: else clause not last in")
                }
                Some([e]) if is_sym(e, "else") => Some("cond: empty else clause in"),
                Some(_) => None,
            };
            if let Some(problem) = problem {
                return Err(err(format!("{problem} {}", list(items))));
            }
        }
        let mut clauses = items.into_iter();
        clauses.next();
        self.cond_clauses(&mut clauses)
    }

    /// Expands checked cond clauses. Temporaries are numbered front to
    /// back, and the later clauses expand before the earlier ones.
    fn cond_clauses(
        &mut self,
        clauses: &mut std::vec::IntoIter<Datum>,
    ) -> Result<Datum, LangError> {
        let Some(Datum::List(mut parts)) = clauses.next() else {
            return Ok(self.void());
        };
        if is_sym(&parts[0], "else") {
            parts.remove(0);
            return self.body(parts);
        }
        if parts.len() == 1 {
            let t = self.gensym("t");
            let rest = self.cond_clauses(clauses)?;
            let test = self.expr(parts.pop().expect("one element"))?;
            return Ok(list(vec![
                self.sym("let"),
                list(vec![list(vec![t.clone(), test])]),
                list(vec![self.sym("if"), t.clone(), t, rest]),
            ]));
        }
        if parts.len() == 3 && is_sym(&parts[1], "=>") {
            let t = self.gensym("t");
            let rest = self.cond_clauses(clauses)?;
            let [test, _, f] = <[Datum; 3]>::try_from(parts).expect("three elements");
            let test = self.expr(test)?;
            let f = self.expr(f)?;
            return Ok(list(vec![
                self.sym("let"),
                list(vec![list(vec![t.clone(), test])]),
                list(vec![self.sym("if"), t.clone(), list(vec![f, t]), rest]),
            ]));
        }
        let rest = self.cond_clauses(clauses)?;
        let [test] = split_front(&mut parts);
        let body = self.body(parts)?;
        let test = self.expr(test)?;
        Ok(list(vec![self.sym("if"), test, body, rest]))
    }

    /// `items` is the whole `(case key clause...)` form.
    fn case(&mut self, mut items: Vec<Datum>) -> Result<Datum, LangError> {
        if items.len() < 2 {
            return Err(malformed("case", items));
        }
        let k = self.gensym("k");
        let well_formed = items[2..].iter().all(|clause| match clause.as_list() {
            Some([e, _, ..]) if is_sym(e, "else") => true,
            Some([Datum::List(_), _, ..]) => true,
            _ => false,
        });
        if !well_formed {
            return Err(err(format!("malformed case clause in {}", list(items))));
        }
        let [_, scrutinee] = split_front(&mut items);
        for clause in items.iter_mut() {
            let Datum::List(parts) = clause else {
                unreachable!("checked above")
            };
            if !is_sym(&parts[0], "else") {
                // ((d ...) body...) → ((memv k '(d ...)) body...)
                let data = take(&mut parts[0]);
                let data = self.quote(data);
                parts[0] = list(vec![self.sym("memv"), k.clone(), data]);
            }
        }
        items.insert(0, self.sym("cond"));
        let expanded = list(vec![
            self.sym("let"),
            list(vec![list(vec![k, scrutinee])]),
            list(items),
        ]);
        self.expr(expanded)
    }

    /// Expands `(and args...)`; the last argument expands first.
    fn and(&mut self, mut args: Vec<Datum>) -> Result<Datum, LangError> {
        let Some(last) = args.pop() else {
            return Ok(Datum::Bool(true));
        };
        let mut acc = self.expr(last)?;
        while let Some(e) = args.pop() {
            acc = list(vec![self.sym("if"), self.expr(e)?, acc, Datum::Bool(false)]);
        }
        Ok(acc)
    }

    /// Expands `(or args...)`: temporaries are numbered front to back,
    /// and the last argument expands first.
    fn or(&mut self, mut args: Vec<Datum>) -> Result<Datum, LangError> {
        let Some(last) = args.pop() else {
            return Ok(Datum::Bool(false));
        };
        let temps: Vec<Datum> = args.iter().map(|_| self.gensym("t")).collect();
        let mut acc = self.expr(last)?;
        for (e, t) in args.into_iter().zip(temps).rev() {
            let e = self.expr(e)?;
            acc = list(vec![
                self.sym("let"),
                list(vec![list(vec![t.clone(), e])]),
                list(vec![self.sym("if"), t.clone(), t, acc]),
            ]);
        }
        Ok(acc)
    }

    /// Standard quasiquote expansion with nesting depth.
    fn quasi(&mut self, d: Datum, depth: u32) -> Result<Datum, LangError> {
        if !has_unquote(&d) {
            return Ok(self.quote(d));
        }
        match d {
            Datum::List(mut items) => {
                let tag = match items.as_slice() {
                    [u, _] if is_sym(u, "unquote") || is_sym(u, "quasiquote") => u.as_sym(),
                    _ => None,
                };
                match tag {
                    Some("unquote") => {
                        let e = items.pop().expect("two elements");
                        if depth == 1 {
                            self.expr(e)
                        } else {
                            let inner = self.quasi(e, depth - 1)?;
                            let tag = self.sym("unquote");
                            let tag = self.quote(tag);
                            Ok(list(vec![self.sym("list"), tag, inner]))
                        }
                    }
                    Some(_) => {
                        let e = items.pop().expect("two elements");
                        let inner = self.quasi(e, depth + 1)?;
                        let tag = self.sym("quasiquote");
                        let tag = self.quote(tag);
                        Ok(list(vec![self.sym("list"), tag, inner]))
                    }
                    None => self.quasi_seq(items, None, depth),
                }
            }
            Datum::Improper(items, tail) => self.quasi_seq(items, Some(*tail), depth),
            atom => Ok(self.quote(atom)),
        }
    }

    fn quasi_seq(
        &mut self,
        items: Vec<Datum>,
        tail: Option<Datum>,
        depth: u32,
    ) -> Result<Datum, LangError> {
        let mut acc = match tail {
            Some(t) => self.quasi(t, depth)?,
            None => self.quote(Datum::nil()),
        };
        for item in items.into_iter().rev() {
            let is_splice = depth == 1
                && matches!(item.as_list(), Some([u, _]) if is_sym(u, "unquote-splicing"));
            if is_splice {
                let Datum::List(mut parts) = item else {
                    unreachable!("matched above")
                };
                let e = self.expr(parts.pop().expect("two elements"))?;
                acc = list(vec![self.sym("append"), e, acc]);
            } else {
                let head = self.quasi(item, depth)?;
                acc = list(vec![self.sym("cons"), head, acc]);
            }
        }
        Ok(acc)
    }
}

fn has_unquote(d: &Datum) -> bool {
    match d {
        Datum::List(items) => {
            if let [u, _] = items.as_slice() {
                if is_sym(u, "unquote") || is_sym(u, "unquote-splicing") {
                    return true;
                }
            }
            items.iter().any(has_unquote)
        }
        Datum::Improper(items, tail) => items.iter().any(has_unquote) || has_unquote(tail),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_sexpr::parse_one;

    fn expand(src: &str) -> String {
        desugar_expr(&parse_one(src).unwrap()).unwrap().to_string()
    }

    fn expand_top(src: &str) -> String {
        let forms = sct_sexpr::parse_all(src).unwrap();
        desugar_top_level(&forms)
            .unwrap()
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn define_function_sugar() {
        assert_eq!(
            expand_top("(define (f x y) (+ x y))"),
            "(define f (lambda (x y) (+ x y)))"
        );
        assert_eq!(
            expand_top("(define (f . args) args)"),
            "(define f (lambda args args))"
        );
        assert_eq!(
            expand_top("(define (f a . rest) rest)"),
            "(define f (lambda (a . rest) rest))"
        );
    }

    #[test]
    fn if_gets_else_arm() {
        assert_eq!(expand("(if a b)"), "(if a b (void))");
        assert_eq!(expand("(if a b c)"), "(if a b c)");
    }

    #[test]
    fn cond_expansion() {
        assert_eq!(expand("(cond [a 1] [else 2])"), "(if a 1 2)");
        assert_eq!(expand("(cond)"), "(void)");
        // Single-test clause binds a temp.
        let out = expand("(cond [a])");
        assert!(
            out.starts_with("(let (( t0 a)) (if  t0  t0 (void)))"),
            "got: {out}"
        );
        // => clause applies the receiver.
        let out = expand("(cond [a => f] [else 0])");
        assert!(out.contains("(f  t0)"), "got: {out}");
    }

    #[test]
    fn and_or_when_unless() {
        assert_eq!(expand("(and)"), "#t");
        assert_eq!(expand("(or)"), "#f");
        assert_eq!(expand("(and a b)"), "(if a b #f)");
        let or = expand("(or a b)");
        assert!(or.contains("(if  t0  t0 b)"), "got: {or}");
        assert_eq!(expand("(when a b)"), "(if a b (void))");
        assert_eq!(expand("(unless a b)"), "(if a (void) b)");
    }

    #[test]
    fn let_star_nests() {
        assert_eq!(
            expand("(let* ([a 1] [b a]) b)"),
            "(let ((a 1)) (let ((b a)) b))"
        );
        assert_eq!(expand("(let* () 5)"), "5");
    }

    #[test]
    fn named_let_becomes_letrec() {
        let out = expand("(let loop ([i 10]) (if (zero? i) 0 (loop (- i 1))))");
        assert!(out.starts_with("(letrec ((loop (lambda (i)"), "got: {out}");
        assert!(out.ends_with("(loop 10))"), "got: {out}");
    }

    #[test]
    fn internal_defines_become_letrec() {
        let out = expand("(lambda (x) (define y 1) (define (g) y) (g))");
        assert_eq!(out, "(lambda (x) (letrec ((y 1) (g (lambda () y))) (g)))");
    }

    #[test]
    fn case_expands_to_memv() {
        let out = expand("(case x [(1 2) 'a] [else 'b])");
        assert!(out.contains("(memv  k0 (quote (1 2)))"), "got: {out}");
        assert!(out.contains("(quote a)"), "got: {out}");
    }

    #[test]
    fn quasiquote_simple() {
        // No unquotes: collapses to plain quote.
        assert_eq!(expand("`(a b c)"), "(quote (a b c))");
        // Unquote splices an expression in.
        assert_eq!(expand("`(a ,x)"), "(cons (quote a) (cons x (quote ())))");
        // Splicing uses append.
        assert_eq!(
            expand("`(a ,@xs b)"),
            "(cons (quote a) (append xs (cons (quote b) (quote ()))))"
        );
    }

    #[test]
    fn quasiquote_nested_depth() {
        // Inner quasiquote increments depth; unquote at depth 2 is data.
        let out = expand("``(,x)");
        assert!(out.contains("(quote unquote)"), "got: {out}");
        // Double unquote reaches code at depth 2.
        let out = expand("`(a `(b ,(c ,x)))");
        assert!(out.contains('x'), "got: {out}");
    }

    #[test]
    fn terminating_c_gets_label() {
        let out = expand("(terminating/c f)");
        assert!(
            out.starts_with("( term/c \"terminating/c#0 on f\" f)"),
            "got: {out}"
        );
        let out2 = expand("(terminating/c f \"my-label\")");
        assert!(out2.contains("my-label"), "got: {out2}");
    }

    #[test]
    fn begin_empty_and_body_sequencing() {
        assert_eq!(expand("(begin)"), "(void)");
        assert_eq!(expand("(begin 1 2)"), "(begin 1 2)");
        assert_eq!(expand("(lambda () 1 2)"), "(lambda () (begin 1 2))");
    }

    #[test]
    fn errors() {
        assert!(desugar_expr(&parse_one("()").unwrap()).is_err());
        assert!(desugar_expr(&parse_one("(lambda (x))").unwrap()).is_err());
        assert!(desugar_expr(&parse_one("(set! 3 4)").unwrap()).is_err());
        assert!(desugar_expr(&parse_one("(unquote x)").unwrap()).is_err());
        assert!(desugar_expr(&parse_one("(cond [else 1] [a 2])").unwrap()).is_err());
        let forms = sct_sexpr::parse_all("(define)").unwrap();
        assert!(desugar_top_level(&forms).is_err());
    }

    #[test]
    fn curried_define() {
        assert_eq!(
            expand_top("(define ((adder n) m) (+ n m))"),
            "(define adder (lambda (n) (lambda (m) (+ n m))))"
        );
    }
}
