//! The core AST produced by the resolver.
//!
//! Variables are lexically addressed (`depth` frames out, `slot` within the
//! frame), top-level definitions live in a global table, and every `lambda`
//! carries the list of free-variable references the interpreter uses to
//! fingerprint closures for the size-change table (§5).

use crate::prims::Prim;
use sct_sexpr::Datum;
use std::rc::Rc;

/// A lexical address: `depth` enclosing frames out, then `slot` within that
/// frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarRef {
    /// Frames to walk outward (0 = innermost).
    pub depth: u16,
    /// Slot within the frame.
    pub slot: u16,
}

/// Index into a [`Program`]'s global table.
pub type GlobalIndex = u32;

/// Unique identifier of a `lambda` form within a program.
pub type LambdaId = u32;

/// A compiled `lambda`.
#[derive(Debug)]
pub struct LambdaDef {
    /// Unique per `lambda` occurrence in the program.
    pub id: LambdaId,
    /// Name from an enclosing `define`/`letrec` binding, for messages.
    pub name: Option<String>,
    /// Number of required parameters.
    pub params: u16,
    /// When true, extra arguments are collected into a rest list stored in
    /// slot `params`.
    pub variadic: bool,
    /// The body, resolved relative to the lambda's parameter frame.
    pub body: Expr,
    /// References to the *defining* environment that occur free in the body
    /// (directly or through nested lambdas). The interpreter hashes the
    /// values at these references to fingerprint the closure.
    pub free: Vec<VarRef>,
}

impl LambdaDef {
    /// Total slots in the parameter frame (params plus rest list).
    pub fn frame_size(&self) -> usize {
        self.params as usize + usize::from(self.variadic)
    }

    /// Human-readable name for error messages.
    pub fn describe(&self) -> String {
        match &self.name {
            Some(n) => n.clone(),
            None => format!("lambda#{}", self.id),
        }
    }
}

/// A core expression.
#[derive(Debug, Clone)]
pub enum Expr {
    /// A literal or quoted datum (all constants are represented this way).
    Quote(Rc<Datum>),
    /// Local variable reference.
    Var(VarRef),
    /// Top-level variable reference.
    Global(GlobalIndex),
    /// Direct reference to a primitive.
    PrimRef(Prim),
    /// Closure creation.
    Lambda(Rc<LambdaDef>),
    /// Two-armed conditional (desugaring supplies `(void)` else arms).
    If {
        /// Test expression.
        cond: Rc<Expr>,
        /// Evaluated when the test is not `#f`.
        then_branch: Rc<Expr>,
        /// Evaluated when the test is `#f`.
        else_branch: Rc<Expr>,
    },
    /// Application `(f e ...)`.
    App {
        /// Operator expression.
        func: Rc<Expr>,
        /// Operand expressions, left to right.
        args: Rc<[Expr]>,
    },
    /// `(begin e ...)` — evaluates all, yields the last. Non-empty.
    Seq(Rc<[Expr]>),
    /// `(set! x e)` on a local.
    SetLocal {
        /// Target variable.
        var: VarRef,
        /// New value.
        value: Rc<Expr>,
    },
    /// `(set! x e)` on a global.
    SetGlobal {
        /// Target global index.
        index: GlobalIndex,
        /// New value.
        value: Rc<Expr>,
    },
    /// `(let ([x e] ...) body)`: evaluates inits in the outer scope, then
    /// pushes one frame. Kept as a core form (rather than a lambda
    /// application) so binding a variable is not a monitored call.
    Let {
        /// Initializer expressions, evaluated left to right in the outer
        /// environment.
        inits: Rc<[Expr]>,
        /// Body, resolved with the new frame innermost.
        body: Rc<Expr>,
    },
    /// `(letrec ([x e] ...) body)`: pushes a frame of undefined slots, then
    /// evaluates inits left to right (each assigned as produced), then the
    /// body — `letrec*` semantics, as Scheme internal defines require.
    LetRec {
        /// Initializer expressions, evaluated inside the new frame.
        inits: Rc<[Expr]>,
        /// Body, in the same frame.
        body: Rc<Expr>,
    },
    /// `(terminating/c e)` — the `term/c` contract form of §3.6, tagged
    /// with a blame label derived from the source text (§2.3).
    TermC {
        /// Expression producing the value to wrap.
        body: Rc<Expr>,
        /// Blame label for violations inside the wrapped extent.
        label: Rc<str>,
    },
}

impl Expr {
    /// Convenience constructor for literals in tests.
    pub fn quoted(d: Datum) -> Expr {
        Expr::Quote(Rc::new(d))
    }

    /// Calls `f` on each direct subexpression, in source order; a
    /// `lambda`'s body is its one child. The one `match` every walk that
    /// only recurses goes through.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        match self {
            Expr::Quote(_) | Expr::Var(_) | Expr::Global(_) | Expr::PrimRef(_) => {}
            Expr::Lambda(def) => f(&def.body),
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                f(cond);
                f(then_branch);
                f(else_branch);
            }
            Expr::App { func, args } => {
                f(func);
                args.iter().for_each(f);
            }
            Expr::Seq(exprs) => exprs.iter().for_each(f),
            Expr::SetLocal { value, .. }
            | Expr::SetGlobal { value, .. }
            | Expr::TermC { body: value, .. } => f(value),
            Expr::Let { inits, body } | Expr::LetRec { inits, body } => {
                inits.iter().for_each(&mut f);
                f(body);
            }
        }
    }

    /// Calls `f` on `self` and every expression nested in it, in source
    /// pre-order: a node before its children, children left to right.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        self.for_each_child(|child| child.walk(f));
    }
}

/// One top-level form.
#[derive(Debug)]
pub enum TopForm {
    /// `(define name e)` — evaluate `e`, store in global `index`.
    Define {
        /// Global slot to assign.
        index: GlobalIndex,
        /// Initializer.
        expr: Expr,
    },
    /// A top-level expression evaluated for value/effect.
    Expr(Expr),
}

impl TopForm {
    /// The form's expression: a define's initializer, or the expression.
    pub fn expr(&self) -> &Expr {
        match self {
            TopForm::Define { expr, .. } | TopForm::Expr(expr) => expr,
        }
    }
}

/// A compiled program: global table plus top-level forms in order. The
/// program's value is the value of its last top-level expression.
#[derive(Debug)]
pub struct Program {
    /// Names of the globals, in index order (all `define`d names).
    pub global_names: Vec<String>,
    /// Top-level forms in source order.
    pub top_level: Vec<TopForm>,
    /// Number of `lambda` forms compiled (ids are `0..lambda_count`).
    pub lambda_count: u32,
}

/// Static binding metadata for one global, computed by
/// [`Program::global_bindings`]. A compiler may treat a global as a known
/// function exactly when it is defined once, by a `lambda`, and never
/// `set!` — then every call site's callee is the closure of `lambda`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalBinding {
    /// How many `define`s target this global (shadowing re-`define`s make
    /// the binding dynamic).
    pub define_count: u32,
    /// The λ id of the sole initializer when it is syntactically a
    /// `lambda` (`None` for non-λ initializers or multiple defines).
    pub lambda: Option<LambdaId>,
    /// Whether any `set!` in the program targets this global.
    pub mutated: bool,
}

impl GlobalBinding {
    /// The λ this global is statically bound to, when the binding is
    /// immutable and unique.
    pub fn static_lambda(&self) -> Option<LambdaId> {
        (self.define_count == 1 && !self.mutated)
            .then_some(self.lambda)
            .flatten()
    }
}

impl Program {
    /// Index of a global by name, if defined.
    pub fn global_index(&self, name: &str) -> Option<GlobalIndex> {
        self.global_names
            .iter()
            .position(|n| n == name)
            .map(|i| i as GlobalIndex)
    }

    /// Per-global static binding metadata (define multiplicity, λ
    /// initializer, `set!` mutation) — what call-site specialization in
    /// `sct-ir` keys on.
    pub fn global_bindings(&self) -> Vec<GlobalBinding> {
        let mut out = vec![GlobalBinding::default(); self.global_names.len()];
        for form in &self.top_level {
            if let TopForm::Define { index, expr } = form {
                let b = &mut out[*index as usize];
                b.define_count += 1;
                b.lambda = if let Expr::Lambda(def) = expr {
                    Some(def.id)
                } else {
                    None
                };
            }
            form.expr().walk(&mut |e| {
                if let Expr::SetGlobal { index, .. } = e {
                    out[*index as usize].mutated = true;
                }
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_size_counts_rest() {
        let fixed = LambdaDef {
            id: 0,
            name: None,
            params: 2,
            variadic: false,
            body: Expr::quoted(Datum::Int(0)),
            free: vec![],
        };
        assert_eq!(fixed.frame_size(), 2);
        let var = LambdaDef {
            params: 2,
            variadic: true,
            ..fixed
        };
        assert_eq!(var.frame_size(), 3);
    }

    #[test]
    fn walk_visits_parents_first_and_children_in_source_order() {
        let p = crate::compile_program(
            "(define (g y) y) (define h 0)
             (define (f x) (if x (g 1) (set! h (lambda () 2))))",
        )
        .unwrap();
        let mut seen = Vec::new();
        p.top_level[2].expr().walk(&mut |e| {
            seen.push(match e {
                Expr::Quote(d) => format!("{d}"),
                Expr::Var(_) => "x".into(),
                Expr::Global(i) => p.global_names[*i as usize].clone(),
                Expr::Lambda(def) => def.describe(),
                Expr::If { .. } => "if".into(),
                Expr::App { .. } => "app".into(),
                Expr::SetGlobal { .. } => "set!".into(),
                other => panic!("unexpected {other:?}"),
            })
        });
        assert_eq!(
            seen,
            ["f", "if", "x", "app", "g", "1", "set!", "lambda#1", "2"]
        );
    }

    #[test]
    fn describe_prefers_name() {
        let mut def = LambdaDef {
            id: 3,
            name: None,
            params: 0,
            variadic: false,
            body: Expr::quoted(Datum::Int(0)),
            free: vec![],
        };
        assert_eq!(def.describe(), "lambda#3");
        def.name = Some("loop".into());
        assert_eq!(def.describe(), "loop");
    }
}
