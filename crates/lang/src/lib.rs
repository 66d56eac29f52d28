//! The λSCT language front end: surface syntax → lexically-resolved core AST.
//!
//! The paper's examples and evaluation corpus are written in a Scheme subset
//! (Figure 3's grammar plus the usual sugar: `define`, `cond`, `let`,
//! quasiquotation, …). This crate compiles that surface syntax, read as
//! S-expressions by `sct-sexpr`, down to a small kernel:
//!
//! 1. [`desugar`] expands derived forms (`cond`, `case`, `and`, `or`,
//!    `let*`, named `let`, `when`, `unless`, quasiquote, internal defines)
//!    into the kernel forms `lambda`, `if`, `begin`, `set!`, `quote`,
//!    `let`, `letrec`, `terminating/c` and application.
//! 2. [`resolve`] turns kernel syntax into the [`ast::Expr`] core AST with
//!    lexical addressing (frame depth × slot), a global table for top-level
//!    `define`s, direct references into the [`prims::Prim`] table, and the
//!    per-lambda free-variable lists the monitor needs to fingerprint
//!    closures (§5: "we hash the closure").
//!
//! # Examples
//!
//! ```
//! use sct_lang::compile_program;
//!
//! let prog = compile_program(
//!     "(define (ack m n)
//!        (cond [(= 0 m) (+ 1 n)]
//!              [(= 0 n) (ack (- m 1) 1)]
//!              [else (ack (- m 1) (ack m (- n 1)))]))
//!      (ack 2 3)",
//! ).expect("compiles");
//! assert_eq!(prog.global_names, vec!["ack".to_string()]);
//! assert_eq!(prog.top_level.len(), 2);
//! ```

pub mod ast;
pub mod desugar;
pub mod pretty;
pub mod prims;
pub mod resolve;

use std::fmt;

pub use ast::{Expr, GlobalIndex, LambdaDef, LambdaId, Program, VarRef};
pub use prims::Prim;

/// An error from any stage of the front end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LangError {
    /// Lowercase description of the problem.
    pub message: String,
}

impl LangError {
    pub(crate) fn new(message: impl Into<String>) -> LangError {
        LangError {
            message: message.into(),
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for LangError {}

impl From<sct_sexpr::ParseError> for LangError {
    fn from(e: sct_sexpr::ParseError) -> Self {
        LangError {
            message: e.to_string(),
        }
    }
}

/// Compiles a whole program (a sequence of top-level forms).
///
/// # Errors
///
/// Returns [`LangError`] on parse errors, malformed special forms, unbound
/// variables, or duplicate parameter names.
pub fn compile_program(source: &str) -> Result<Program, LangError> {
    let data = sct_sexpr::parse_all(source)?;
    // Each stage consumes its input, freeing it as it goes.
    let expanded = desugar::desugar_program(data)?;
    resolve::resolve_forms(expanded)
}
